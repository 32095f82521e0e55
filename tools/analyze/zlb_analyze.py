#!/usr/bin/env python3
"""zlb_analyze — AST-grounded semantic analyzer for the ZLB sources.

Where tools/lint/zlb_lint.py pattern-matches *text*, this tool analyzes
*program semantics*: it parses the C++ sources into a program model
(records with typed fields, functions with parameter lists and bodies,
a call graph with receiver-type resolution) and discharges the protocol
invariants by dataflow over that model. Five checkers:

  lock-order      Builds the whole-program mutex-acquisition graph from
                  the annotated Mutex/MutexLock wrappers (including
                  Mutex& reference members unified through constructor
                  bindings) and reports (a) any cycle, interprocedurally
                  — per-TU -Wthread-safety cannot see these — and (b)
                  any edge contradicting the documented order
                  decisions_mutex_ > ledger_mutex_ > pipeline internals.
  epoch-taint     Proves, by dataflow from the Writer out through calls
                  (field types resolved through the record model), that
                  every *signing_bytes/*summary_bytes function
                  transitively binds an epoch field — the cross-epoch
                  replay guard of Alg. 1. Replaces the token-matching
                  epoch-signing regex, which any helper indirection or
                  stray identifier could fool.
  bounded-decode  Every allocation or raw buffer access in a decode
                  body must be dominated by a remaining-bytes check:
                  wire counts feeding reserve()/resize() must be proven
                  satisfiable by the remaining input (the canonical
                  primitive is Reader::length_prefix), and .data()/[]
                  arithmetic on wire buffers must sit under a size
                  comparison. An OOB-read/alloc-amplification proof
                  over input a colluding majority may have crafted.
  wire-schema     Statically derives each message's field sequence
                  (type, order, width) from encode bodies, checks
                  field-level encode/decode symmetry per record, and
                  diffs the extraction against the committed golden
                  (tools/analyze/wire_schema.golden.json) so any wire
                  format change is an explicit, reviewed event.
  lock-blocking   Scope-aware blocking-I/O-under-lock: tracks held-lock
                  scopes through the real brace structure and the call
                  graph, so blocking calls made in the scope or reached
                  through any depth of helpers are caught (a file
                  stream constructed in the scope counts as one), and
                  flags potentially throwing calls between manual
                  lock()/unlock() pairs.

Frontends: with the clang Python bindings + a compilation database the
model is built from the real clang AST (tools/analyze/clang_frontend.py);
without them a pure-Python C++ parser produces the same model, so CI
degrades gracefully. `--frontend auto` (default) picks clang when
available.

Vetted exceptions live in an allowlist (see --allow), `checker:token`
lines where token is a function's qualified name, a record name, or a
path suffix. Every entry needs a justification comment; unused entries
are reported so the list cannot rot.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
Findings print as `file:line: [checker] message`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<raw>R"\((?:.|\n)*?\)")
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<chr>'(?:\\.|[^'\\\n])*')
    | (?P<num>\.?[0-9](?:[\w.']|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<p>::|->\*|->|\+\+|--|<<=|>>=|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|\|=|&=|\^=|\.\.\.|.)
    """,
    re.X,
)


@dataclass
class Tok:
    kind: str  # "id" | "num" | "str" | "chr" | "p"
    text: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.text}@{self.line}"


def strip_preprocessor(text: str) -> str:
    """Blanks preprocessor directives (incl. continuations), keeps lines."""
    out: list[str] = []
    cont = False
    for line in text.split("\n"):
        stripped = line.lstrip()
        if cont or stripped.startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append("")
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


def tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    line = 1
    for m in TOKEN_RE.finditer(strip_preprocessor(text)):
        kind = m.lastgroup
        s = m.group(0)
        if kind in ("ws", "comment", "raw"):
            line += s.count("\n")
            continue
        if kind == "chr" and s == "'":
            # Stray quote (e.g. in a digit separator context we missed):
            # treat as punctuation, never worth failing a parse over.
            kind = "p"
        toks.append(Tok("p" if kind == "p" else kind, s, line))
        line += s.count("\n")
    return toks


def match_forward(toks: list[Tok], i: int, open_ch: str, close_ch: str) -> int:
    """Index of the token closing the group opened at i (which must be
    open_ch). Returns len(toks) when unbalanced."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == open_ch:
            depth += 1
        elif t == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks)


def match_backward(toks: list[Tok], i: int, open_ch: str,
                   close_ch: str) -> int:
    """Index of the token opening the group closed at i, or -1 when i
    is not close_ch or the group is unbalanced."""
    depth = 0
    while i >= 0:
        t = toks[i].text
        if t == close_ch:
            depth += 1
        elif t == open_ch:
            depth -= 1
            if depth == 0:
                return i
        elif depth == 0:
            return -1
        i -= 1
    return -1


def skip_template_args_back(toks: list[Tok], i: int) -> int:
    """Given i at a '>' closing a template argument list, return the index
    of the matching '<' - 1. Best effort (no shift operators appear in
    the type positions we scan)."""
    depth = 0
    while i >= 0:
        t = toks[i].text
        if t == ">":
            depth += 1
        elif t == "<":
            depth -= 1
            if depth == 0:
                return i - 1
        i -= 1
    return -1


# ---------------------------------------------------------------------------
# Program model (shared between frontends)
# ---------------------------------------------------------------------------

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "throw",
    "new", "delete", "do", "else", "case", "static_assert", "decltype",
    "alignof", "co_await", "co_return", "co_yield", "assert",
}

ANNOTATION_MACROS = {
    "REQUIRES", "EXCLUDES", "ACQUIRE", "RELEASE", "TRY_ACQUIRE",
    "ASSERT_CAPABILITY", "GUARDED_BY", "PT_GUARDED_BY", "RETURN_CAPABILITY",
    "NO_THREAD_SAFETY_ANALYSIS", "SCOPED_CAPABILITY", "CAPABILITY",
    "ACQUIRED_AFTER", "ACQUIRED_BEFORE", "RELEASE_SHARED", "ACQUIRE_SHARED",
}

POST_QUALIFIERS = {"const", "noexcept", "override", "final", "mutable",
                   "volatile", "&", "&&", "inline", "constexpr"}


@dataclass
class Field_:
    type: str
    name: str


@dataclass
class Record:
    name: str            # unqualified (last component)
    qual: str            # Outer::Inner when nested
    fields: dict[str, Field_] = field(default_factory=dict)
    file: str = ""
    line: int = 0


@dataclass
class Func:
    name: str            # unqualified
    cls: str | None      # enclosing/owning record name (unqualified)
    qual: str            # "Class::name" or "name"
    params: list[Field_] = field(default_factory=list)
    body: list[Tok] = field(default_factory=list)  # includes braces
    file: str = ""
    line: int = 0
    annotations: list[str] = field(default_factory=list)  # e.g. REQUIRES(mu_)
    init_bindings: dict[str, str] = field(default_factory=dict)  # ctor: member -> init expr


@dataclass
class Program:
    records: dict[str, Record] = field(default_factory=dict)   # by unqualified name
    funcs: list[Func] = field(default_factory=list)
    by_name: dict[str, list[Func]] = field(default_factory=dict)
    by_qual: dict[str, list[Func]] = field(default_factory=dict)
    method_decl_annotations: dict[str, list[str]] = field(default_factory=dict)
    frontend: str = "python"

    def index(self) -> None:
        self.by_name.clear()
        self.by_qual.clear()
        for f in self.funcs:
            self.by_name.setdefault(f.name, []).append(f)
            self.by_qual.setdefault(f.qual, []).append(f)

    def annotations_of(self, f: Func) -> list[str]:
        return f.annotations + self.method_decl_annotations.get(f.qual, [])


# ---------------------------------------------------------------------------
# Pure-Python frontend: tokens -> Program
# ---------------------------------------------------------------------------

class PyFrontend:
    """Builds the program model with a lightweight recursive scanner.

    Not a full C++ parser — it understands exactly the shapes this
    codebase (and most disciplined C++) uses: namespaces, records with
    field/method declarations, free and member function definitions,
    constructor initializer lists, template headers (skipped), enums
    (skipped). Everything inside function bodies is kept as a token
    slice for the checkers' statement-level scans.
    """

    def __init__(self) -> None:
        self.program = Program()

    def parse_file(self, path: Path, text: str) -> None:
        toks = tokenize(text)
        self._scan(toks, 0, len(toks), str(path), record_ctx=None)

    # -- declarations ----------------------------------------------------

    def _scan(self, toks: list[Tok], i: int, end: int, file: str,
              record_ctx: str | None, record_qual: str = "") -> None:
        stmt_start = i
        while i < end:
            t = toks[i]
            txt = t.text
            if txt == "template":
                # skip the parameter list; the templated decl follows.
                if i + 1 < end and toks[i + 1].text == "<":
                    depth = 0
                    j = i + 1
                    while j < end:
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    i = j + 1
                    continue
            if txt == "namespace":
                j = i + 1
                while j < end and toks[j].text != "{" and toks[j].text != ";":
                    j += 1
                if j < end and toks[j].text == "{":
                    close = match_forward(toks, j, "{", "}")
                    self._scan(toks, j + 1, close, file, record_ctx,
                               record_qual)
                    i = close + 1
                    stmt_start = i
                    continue
                i = j + 1
                stmt_start = i
                continue
            if txt == "enum":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    j = match_forward(toks, j, "{", "}")
                i = j + 1
                stmt_start = i
                continue
            if txt in ("struct", "class", "union") and i + 1 < end \
                    and toks[i + 1].kind == "id":
                # Possibly preceded by CAPABILITY(...) etc — irrelevant.
                name_idx = i + 1
                # skip annotation macros used as the "name" slot:
                # `class CAPABILITY("mutex") Mutex`, and alignment:
                # `struct alignas(64) Shard`.
                if toks[name_idx].text in ANNOTATION_MACROS or \
                        toks[name_idx].text == "alignas":
                    j = name_idx + 1
                    if j < end and toks[j].text == "(":
                        j = match_forward(toks, j, "(", ")")
                        name_idx = j + 1
                    else:
                        name_idx = j
                if name_idx >= end or toks[name_idx].kind != "id":
                    i += 1
                    continue
                name = toks[name_idx].text
                if name in ANNOTATION_MACROS:
                    # SCOPED_CAPABILITY MutexLock — the macro came first.
                    name_idx += 1
                    if name_idx >= end or toks[name_idx].kind != "id":
                        i += 1
                        continue
                    name = toks[name_idx].text
                j = name_idx + 1
                while j < end and toks[j].text not in ("{", ";", "("):
                    j += 1
                if j < end and toks[j].text == "{":
                    close = match_forward(toks, j, "{", "}")
                    qual = f"{record_qual}::{name}" if record_qual else name
                    rec = self.program.records.setdefault(
                        name, Record(name=name, qual=qual, file=file,
                                     line=t.line))
                    self._scan_record(toks, j + 1, close, file, rec)
                    i = close + 1
                    stmt_start = i
                    continue
                i = j + 1
                stmt_start = i
                continue
            if txt == "{":
                # stray block (e.g. extern "C") — recurse transparently
                close = match_forward(toks, i, "{", "}")
                self._scan(toks, i + 1, close, file, record_ctx, record_qual)
                i = close + 1
                stmt_start = i
                continue
            if txt == "(" and i > stmt_start:
                consumed = self._try_function(toks, stmt_start, i, end, file,
                                              record_ctx)
                if consumed is not None:
                    i = consumed
                    stmt_start = i
                    continue
                # not a definition: skip the parens group
                i = match_forward(toks, i, "(", ")") + 1
                continue
            if txt == ";":
                i += 1
                stmt_start = i
                continue
            i += 1

    def _scan_record(self, toks: list[Tok], i: int, end: int, file: str,
                     rec: Record) -> None:
        stmt_start = i
        while i < end:
            t = toks[i]
            txt = t.text
            if txt in ("public", "private", "protected") and i + 1 < end \
                    and toks[i + 1].text == ":":
                i += 2
                stmt_start = i
                continue
            if txt in ("struct", "class", "enum", "union", "template",
                       "namespace"):
                save = i
                self._scan(toks, i, end, file, None, rec.qual)
                # _scan consumed from i onward; we cannot easily resume —
                # instead scan just this nested decl: find its extent.
                j = save
                if txt == "template":
                    if j + 1 < end and toks[j + 1].text == "<":
                        depth = 0
                        j += 1
                        while j < end:
                            if toks[j].text == "<":
                                depth += 1
                            elif toks[j].text == ">":
                                depth -= 1
                                if depth == 0:
                                    break
                            j += 1
                        i = j + 1
                        stmt_start = i
                        continue
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    j = match_forward(toks, j, "{", "}")
                    # struct X {...};  — consume trailing name/;
                    while j + 1 < end and toks[j + 1].text != ";":
                        j += 1
                i = j + 1
                stmt_start = i
                continue
            if txt == "(" and i > stmt_start:
                consumed = self._try_function(toks, stmt_start, i, end, file,
                                              rec.name)
                if consumed is not None:
                    i = consumed
                    stmt_start = i
                    continue
                # method DECLARATION (no body) or field with ctor init:
                close = match_forward(toks, i, "(", ")")
                name_i = i - 1
                if toks[name_i].kind == "id":
                    # collect post-) annotation macros for the decl
                    anns = self._post_annotations(toks, close + 1, end)[0]
                    if anns:
                        q = f"{rec.name}::{toks[name_i].text}"
                        self.program.method_decl_annotations.setdefault(
                            q, []).extend(anns)
                i = close + 1
                continue
            if txt == "{":
                i = match_forward(toks, i, "{", "}") + 1
                continue
            if txt == ";":
                self._try_field(toks, stmt_start, i, rec)
                i += 1
                stmt_start = i
                continue
            i += 1

    def _try_field(self, toks: list[Tok], start: int, semi: int,
                   rec: Record) -> None:
        seg = toks[start:semi]
        if not seg:
            return
        txts = [t.text for t in seg]
        if txts[0] in ("using", "friend", "typedef", "static_assert",
                       "public", "private", "protected", "template"):
            return
        if "(" in txts:
            return  # method decl handled elsewhere
        # name = last id before '=' or '{', an array declarator's '[',
        # or the end
        stop = len(seg)
        array = False
        for k, t in enumerate(seg):
            if t.text in ("=", "{"):
                stop = k
                break
            if t.text == "[" and k > 0 and seg[k - 1].kind == "id" and \
                    not (k + 1 < len(seg) and seg[k + 1].text == "["):
                stop = k
                array = True
                break
        name = None
        for t in reversed(seg[:stop]):
            if t.kind == "id" and t.text not in ("const", "mutable",
                                                 "static", "constexpr",
                                                 "inline", "volatile"):
                name = t.text
                break
        if name is None:
            return
        type_toks = []
        for t in seg[:stop]:
            if t.text == name and t is seg[:stop][-1]:
                break
            type_toks.append(t.text)
        # drop the trailing name occurrence from the type
        if type_toks and type_toks[-1] == name:
            type_toks.pop()
        type_str = " ".join(x for x in type_toks
                            if x not in ("static", "mutable", "inline"))
        if not type_str:
            return
        if array:  # `T name[N]`: element_type() reads T back
            type_str += " [ ]"
        if any(t.text in ANNOTATION_MACROS for t in seg):
            # strip GUARDED_BY(...) etc from the type
            type_str = re.sub(
                r"\b(?:%s)\s*(?:\([^)]*\))?" % "|".join(ANNOTATION_MACROS),
                "", type_str).strip()
        rec.fields[name] = Field_(type=type_str, name=name)

    def _post_annotations(self, toks: list[Tok], i: int,
                          end: int) -> tuple[list[str], int]:
        """Collects REQUIRES(x)/EXCLUDES(x)/... after a ')' until a
        terminator; returns (annotations, index at terminator)."""
        anns: list[str] = []
        while i < end:
            t = toks[i].text
            if t in POST_QUALIFIERS:
                i += 1
                continue
            if t == "[" and i + 1 < end and toks[i + 1].text == "[":
                depth = 0
                while i < end:
                    if toks[i].text == "[":
                        depth += 1
                    elif toks[i].text == "]":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                i += 1
                continue
            if t == "->":  # trailing return type: skip to '{' ';' or ':'
                while i < end and toks[i].text not in ("{", ";"):
                    i += 1
                continue
            if toks[i].kind == "id" and t in ANNOTATION_MACROS:
                j = i + 1
                if j < end and toks[j].text == "(":
                    close = match_forward(toks, j, "(", ")")
                    arg = "".join(x.text for x in toks[j + 1:close])
                    anns.append(f"{t}({arg})")
                    i = close + 1
                else:
                    anns.append(t)
                    i = j
                continue
            break
        return anns, i

    def _try_function(self, toks: list[Tok], stmt_start: int, paren: int,
                      end: int, file: str,
                      record_ctx: str | None) -> int | None:
        """If the '(' at `paren` opens a function definition, record it
        and return the index just past its body. Else None."""
        name_i = paren - 1
        if name_i < stmt_start:
            return None
        nt = toks[name_i]
        if nt.text == ">":
            return None  # templated call / cast in a decl position
        if nt.kind != "id" or nt.text in CONTROL_KEYWORDS:
            return None
        if nt.text in ANNOTATION_MACROS:
            return None
        # qualified name path: walk back over (id ::)* and destructor '~'
        path = [nt.text]
        j = name_i - 1
        while j - 1 >= stmt_start and toks[j].text == "::" \
                and toks[j - 1].kind == "id":
            path.insert(0, toks[j - 1].text)
            j -= 2
        # there must be SOMETHING type-ish before the name, unless this
        # is a constructor (name == class) or qualified definition.
        close = match_forward(toks, paren, "(", ")")
        if close >= end:
            return None
        anns, k = self._post_annotations(toks, close + 1, end)
        init_bindings: dict[str, str] = {}
        if k < end and toks[k].text == ":":
            # constructor initializer list
            k += 1
            while k < end and toks[k].text != "{":
                if toks[k].kind == "id" and k + 1 < end \
                        and toks[k + 1].text in ("(", "{"):
                    member = toks[k].text
                    opener = toks[k + 1].text
                    closer = ")" if opener == "(" else "}"
                    c2 = match_forward(toks, k + 1, opener, closer)
                    expr = "".join(x.text for x in toks[k + 2:c2])
                    init_bindings[member] = expr
                    k = c2 + 1
                else:
                    k += 1
        if k >= end or toks[k].text != "{":
            return None
        body_close = match_forward(toks, k, "{", "}")
        if body_close >= end:
            return None

        name = path[-1]
        if name == "operator" or "operator" in path:
            return self._finish(body_close)
        cls = path[-2] if len(path) >= 2 else record_ctx
        if name.startswith("~"):
            return self._finish(body_close)
        # parameters
        params: list[Field_] = []
        depth = 0
        seg: list[Tok] = []
        for t in toks[paren:close + 1]:
            if t.text in ("(", "<", "[", "{"):
                depth += 1
            if t.text in (")", ">", "]", "}"):
                depth -= 1
            if (t.text == "," and depth == 1) or (t.text == ")" and depth == 0):
                inner = seg[1:] if seg and seg[0].text == "(" else seg
                p = self._parse_param(inner)
                if p:
                    params.append(p)
                seg = [Tok("p", "(", t.line)]
                continue
            seg.append(t)

        fn = Func(
            name=name, cls=cls,
            qual=f"{cls}::{name}" if cls else name,
            params=params, body=toks[k:body_close + 1], file=file,
            line=nt.line, annotations=anns, init_bindings=init_bindings)
        self.program.funcs.append(fn)
        return self._finish(body_close)

    @staticmethod
    def _finish(body_close: int) -> int:
        return body_close + 1

    @staticmethod
    def _parse_param(seg: list[Tok]) -> Field_ | None:
        seg = [t for t in seg if t.text not in ("const", "volatile")]
        if not seg:
            return None
        if len(seg) == 1 and seg[0].text == "void":
            return None
        name = None
        if seg[-1].kind == "id":
            name = seg[-1].text
            type_toks = seg[:-1]
        else:
            type_toks = seg
        type_str = " ".join(t.text for t in type_toks)
        if not type_str and name:
            # `Writer` alone: unnamed param of type Writer
            type_str, name = name, ""
        return Field_(type=type_str, name=name or "")


def load_python_frontend(files: dict[Path, str]) -> Program:
    fe = PyFrontend()
    for path in sorted(files):
        fe.parse_file(path, files[path])
    fe.program.index()
    fe.program.frontend = "python"
    return fe.program


# ---------------------------------------------------------------------------
# Body scanning utilities (work on token slices)
# ---------------------------------------------------------------------------

@dataclass
class Call:
    idx: int                 # token index of the name
    line: int
    name: str                # callee (last path component)
    path: list[str]          # qualified path, e.g. ["InstanceKey","decode"]
    recv: list[str]          # receiver chain, e.g. ["m","members"]
    args: list[list[Tok]]    # top-level argument token slices
    close: int               # index of the closing ')'


def iter_calls(body: list[Tok]) -> list[Call]:
    calls: list[Call] = []
    for i, t in enumerate(body):
        if t.text != "(" or i == 0:
            continue
        nt = body[i - 1]
        if nt.kind != "id" or nt.text in CONTROL_KEYWORDS:
            continue
        # path backwards over ::
        path = [nt.text]
        j = i - 2
        while j - 1 >= 0 and body[j].text == "::" and body[j - 1].kind == "id":
            path.insert(0, body[j - 1].text)
            j -= 2
        # receiver chain backwards over . / -> (a subscript `x[i].f()`
        # reads as ["x", "[]"]: an element of x)
        recv: list[str] = []
        k = i - 1 - (2 * (len(path) - 1)) - 1
        while k - 1 >= 0 and body[k].text in (".", "->"):
            if body[k - 1].kind == "id":
                recv.insert(0, body[k - 1].text)
                k -= 2
                continue
            opened = match_backward(body, k - 1, "[", "]")
            if opened < 1 or body[opened - 1].kind != "id":
                break
            recv[0:0] = [body[opened - 1].text, "[]"]
            k = opened - 2
        close = match_forward(body, i, "(", ")")
        if close >= len(body):
            continue
        args: list[list[Tok]] = []
        depth = 0
        cur: list[Tok] = []
        for t2 in body[i:close + 1]:
            if t2.text in ("(", "<", "[", "{"):
                depth += 1
            if t2.text in (")", ">", "]", "}"):
                depth -= 1
            if (t2.text == "," and depth == 1) or \
               (t2.text == ")" and depth == 0):
                inner = cur[1:] if cur and cur[0].text == "(" else cur
                if inner:
                    args.append(inner)
                cur = [Tok("p", "(", t2.line)]
                continue
            cur.append(t2)
        calls.append(Call(idx=i - 1, line=nt.line, name=nt.text, path=path,
                          recv=recv, args=args, close=close))
    return calls


TYPE_NOISE = {"const", "std", "::", "&", "*", "<", ">", ",", "common",
              "zlb", "chain", "consensus", "net", "sync", "asmr", "crypto",
              "bm", "obs", "mc", "sim"}


def base_type(type_str: str) -> str:
    """Last meaningful type identifier: 'const common::Mutex &' -> Mutex,
    'std::vector<SignedVote>' -> vector (use element_type for the T)."""
    ids = re.findall(r"[A-Za-z_]\w*", type_str)
    ids = [x for x in ids if x not in ("const", "std", "volatile", "mutable",
                                       "unsigned", "signed", "typename")]
    # drop namespace qualifiers: keep the id right before a template open
    m = re.search(r"([A-Za-z_]\w*)\s*<", type_str)
    if m:
        return m.group(1)
    return ids[-1] if ids else ""


def element_type(type_str: str) -> str | None:
    """vector<X>/array<X,N>/optional<X>/map<K,V>(V)/X[] element type
    name."""
    # The Python frontend joins type tokens with spaces
    # ('std :: unique_ptr < sync :: X >'); a qualified name must read
    # as one identifier path or it resolves to its namespace.
    type_str = re.sub(r"\s*::\s*", "::", type_str)
    m = re.fullmatch(r"(.*?)\s*\[\s*\]", type_str)  # T[]
    if m:
        return base_type(m.group(1)) or None
    m = re.search(r"(?:vector|set|deque|optional|unique_ptr|shared_ptr)\s*<\s*"
                  r"([A-Za-z_][\w:]*)", type_str)
    if m:
        return m.group(1).split("::")[-1]
    m = re.search(r"map\s*<[^,]+,\s*([A-Za-z_][\w:]*)", type_str)
    if m:
        return m.group(1).split("::")[-1]
    m = re.search(r"array\s*<\s*([A-Za-z_][\w:]*)", type_str)
    if m:
        return m.group(1).split("::")[-1]
    return None


def local_decls(body: list[Tok]) -> dict[str, str]:
    """name -> type string for locals declared `Type name ...` in a body.
    Heuristic: an id-path (possibly templated / ref-qualified) followed
    by an id followed by one of ';=,({' at statement position."""
    out: dict[str, str] = {}
    i = 0
    n = len(body)
    stmt_start = 0
    while i < n:
        t = body[i]
        if t.text in (";", "{", "}", ":") and not (
                t.text == ":" and i > 0 and body[i - 1].text == ":"):
            stmt_start = i + 1
            i += 1
            continue
        if t.kind == "id" and i + 1 < n and body[i + 1].text in \
                (";", "=", "(", "{", ",") and i > stmt_start:
            # type tokens = stmt_start..i-1 if they look like a type
            seg = body[stmt_start:i]
            if seg and all(x.kind in ("id", "p") for x in seg):
                txts = [x.text for x in seg]
                if txts and txts[-1] in ("&", "*"):
                    txts = txts[:-1]
                if txts and txts[-1] not in (".", "->", "::", "=", ",", "(",
                                             ")", "return") \
                        and not any(x in ("return", "=", ".", "->", "==",
                                          "!=", "<=", ">=", "+", "-",
                                          "throw", "delete", "new")
                                    for x in txts) \
                        and any(x.kind == "id" for x in seg):
                    type_str = " ".join(txts)
                    if type_str.strip(" &*"):
                        out.setdefault(t.text, type_str)
        i += 1
    return out


def range_for_loops(body: list[Tok]):
    """Yields (decl_toks, expr_toks, body_slice, header_index) for
    `for (decl : expr) {body}` loops."""
    for i, t in enumerate(body):
        if t.text != "for" or i + 1 >= len(body) or body[i + 1].text != "(":
            continue
        close = match_forward(body, i + 1, "(", ")")
        if close >= len(body):
            continue
        inner = body[i + 2:close]
        if any(x.text == ";" for x in inner):
            continue  # classic for
        colon = None
        depth = 0
        for k, x in enumerate(inner):
            if x.text in ("(", "<", "[", "{"):
                depth += 1
            elif x.text in (")", ">", "]", "}"):
                depth -= 1
            elif x.text == ":" and depth == 0 and not (
                    k > 0 and inner[k - 1].text == ":"):
                colon = k
                break
        if colon is None:
            continue
        decl, expr = inner[:colon], inner[colon + 1:]
        j = close + 1
        if j < len(body) and body[j].text == "{":
            bclose = match_forward(body, j, "{", "}")
            yield decl, expr, body[j:bclose + 1], i
        else:
            # single statement
            k = j
            while k < len(body) and body[k].text != ";":
                k += 1
            yield decl, expr, body[j:k + 1], i


def classic_for_loops(body: list[Tok]):
    """Yields (cond_toks, body_slice, header_index)."""
    for i, t in enumerate(body):
        if t.text != "for" or i + 1 >= len(body) or body[i + 1].text != "(":
            continue
        close = match_forward(body, i + 1, "(", ")")
        if close >= len(body):
            continue
        inner = body[i + 2:close]
        semis = [k for k, x in enumerate(inner) if x.text == ";"]
        if len(semis) < 2:
            continue
        cond = inner[semis[0] + 1:semis[1]]
        j = close + 1
        if j < len(body) and body[j].text == "{":
            bclose = match_forward(body, j, "{", "}")
            yield cond, body[j:bclose + 1], i
        else:
            k = j
            while k < len(body) and body[k].text != ";":
                k += 1
            yield cond, body[j:k + 1], i


# ---------------------------------------------------------------------------
# Findings / allowlist
# ---------------------------------------------------------------------------

@dataclass
class Finding:
    file: str
    line: int
    checker: str
    msg: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: [{self.checker}] {self.msg}"

    def as_json(self) -> dict:
        return {"file": self.file, "line": self.line,
                "checker": self.checker, "message": self.msg}


class Allowlist:
    def __init__(self, path: Path | None):
        self.entries: dict[str, set[str]] = {}
        self.used: set[tuple[str, str]] = set()
        if path is not None and path.exists():
            for raw in path.read_text().splitlines():
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                checker, _, token = line.partition(":")
                self.entries.setdefault(checker.strip(), set()).add(
                    token.strip())

    def allowed(self, checker: str, *tokens: str) -> bool:
        for token in tokens:
            if not token:
                continue
            for entry in self.entries.get(checker, ()):
                if token == entry or token.endswith(entry):
                    self.used.add((checker, entry))
                    return True
        return False

    def unused(self) -> list[tuple[str, str]]:
        out = []
        for checker, toks in sorted(self.entries.items()):
            for tok in sorted(toks):
                if (checker, tok) not in self.used:
                    out.append((checker, tok))
        return out


# ---------------------------------------------------------------------------
# Analyzer core
# ---------------------------------------------------------------------------

EPOCH_RE = re.compile(r"epoch", re.I)
SIGNING_SINK = re.compile(r"(^|_)(signing_bytes|summary_bytes)$")
WIRE_READS = {"u8", "u16", "u32", "u64", "i64", "varint", "boolean",
              "raw", "bytes", "string"}
COUNT_READS = {"u16", "u32", "u64", "i64", "varint"}
ENCODE_NAMES = re.compile(r"^(encode|encode_\w+|serialize)$")
DECODE_NAMES = re.compile(r"^(decode|decode_\w+|deserialize)$")
BLOCKING_LEAVES = {
    "fopen", "fclose", "fread", "fwrite", "fflush", "fsync", "fdatasync",
    "sleep_for", "sleep_until", "poll", "connect", "accept", "recv", "send",
    "sendto", "recvfrom", "read", "write", "rename", "remove", "getline",
    "open", "close", "fputs", "fgets", "unlink", "flush", "pread", "pwrite",
    "lseek", "fstat",
}
# File stream types: constructing one opens a file (and its destructor
# flushes and closes it), so the construction is itself a blocking call.
FILE_STREAMS = {"ofstream", "ifstream", "fstream"}
# Writer/Reader and the annotated mutex wrapper are the verified trusted
# core: their internals are exactly the bounds/locking machinery the
# checkers assume, so they are modeled, not re-checked.
TRUSTED_CORE_FILES = ("src/common/serde.cpp", "src/common/serde.hpp",
                      "src/common/mutex.hpp", "src/common/bytes.hpp",
                      "src/common/bytes.cpp")

# The documented whole-program lock order, outermost first (see the
# LiveNode threading-model comment). Locks at the same rank are leaves
# that must never nest into each other.
DOC_LOCK_ORDER: list[list[str]] = [
    ["LiveNode::decisions_mutex_"],
    ["LiveNode::ledger_mutex_"],
    ["CommitPipeline::mu_", "ThreadPool::mu_", "CheckpointManager::mu_"],
]


class Analyzer:
    def __init__(self, program: Program, allow: Allowlist,
                 schema_allow_unpaired: set[str] | None = None):
        self.p = program
        self.allow = allow
        self.findings: list[Finding] = []

    # -- shared resolution helpers --------------------------------------

    def func_scope_types(self, fn: Func) -> dict[str, str]:
        """name -> type string for params, locals and enclosing-class
        fields visible in fn's body."""
        scope: dict[str, str] = {}
        if fn.cls and fn.cls in self.p.records:
            for f_ in self.p.records[fn.cls].fields.values():
                scope[f_.name] = f_.type
        for prm in fn.params:
            if prm.name:
                scope[prm.name] = prm.type
        scope.update(local_decls(fn.body))
        self._add_range_for_types(fn, scope)
        return scope

    def _add_range_for_types(self, fn: Func, scope: dict[str, str]) -> None:
        """Types range-for loop variables in `scope`: the declared type,
        or for `auto` the range's element type. A name the scope already
        types keeps its type; one that loops bind to different types, or
        that a loop cannot type, stays untyped, so calls on it keep
        resolving to every candidate."""
        loop_types: dict[str, str | None] = {}
        for decl, expr, _body, _hdr in range_for_loops(fn.body):
            ids = [k for k, t in enumerate(decl) if t.kind == "id"]
            if not ids or any(t.text == "[" for t in decl):
                continue  # structured bindings stay untyped
            var = decl[ids[-1]].text
            if var in scope and var not in loop_types:
                continue
            type_toks = [t.text for t in decl[:ids[-1]]
                         if t.text not in ("&", "*", "&&")]
            if "auto" in type_toks:
                tstr = self._expr_elem_type(expr, fn, scope)
            else:
                tstr = " ".join(type_toks) or None
            if var in loop_types and loop_types[var] != tstr:
                tstr = None
            loop_types[var] = tstr
            if tstr:
                scope[var] = tstr
            else:
                scope.pop(var, None)

    def resolve_chain_type(self, chain: list[str], fn: Func,
                           scope: dict[str, str]) -> str | None:
        """Type name of a.b.c receiver chains, through the record model."""
        if not chain:
            return fn.cls
        cur: str | None = None
        first = chain[0]
        if first == "this":
            cur = tstr = fn.cls
            rest = chain[1:]
        elif first in scope:
            tstr = scope[first]
            cur = base_type(tstr)
            rest = chain[1:]
        elif first in self.p.records:
            cur = tstr = first
            rest = chain[1:]
        else:
            return None
        for part in rest:
            if cur is None:
                return None
            if part == "[]":  # an element of the container so far
                cur = tstr = element_type(tstr or "")
                continue
            rec = self.p.records.get(cur)
            if rec is None or part not in rec.fields:
                return None
            tstr = rec.fields[part].type
            cur = base_type(tstr)
        return cur

    def resolve_call_targets(self, call: Call, fn: Func,
                             scope: dict[str, str]) -> list[Func]:
        """Callee candidates, narrowed by receiver type / same class."""
        cands = self.p.by_name.get(call.name, [])
        if not cands:
            return []
        if len(call.path) >= 2:  # X::f(...)
            qual = "::".join(call.path[-2:])
            exact = self.p.by_qual.get(qual, [])
            if exact:
                return exact
        if call.recv:
            rt = self.resolve_chain_type(call.recv, fn, scope)
            if rt is not None:
                narrowed = [c for c in cands if c.cls == rt]
                if narrowed:
                    return narrowed
                elem = None
                if call.recv[-1] in scope:
                    elem = element_type(scope[call.recv[-1]])
                if elem:
                    narrowed = [c for c in cands if c.cls == elem]
                    if narrowed:
                        return narrowed
                return []  # typed receiver, no model match: std:: etc.
            # untyped receiver (e.g. chained call): be conservative
            return cands
        # bare call: prefer same-class method, then free functions
        if fn.cls:
            same = [c for c in cands if c.cls == fn.cls]
            if same:
                return same
        free = [c for c in cands if c.cls is None]
        return free or cands

    # ==================================================================
    # Checker 1: lock-order
    # ==================================================================

    def lock_id(self, expr: str, fn: Func, scope: dict[str, str],
                alias: dict[str, str]) -> str | None:
        """Canonical lock class for a mutex expression in fn's scope."""
        name = expr.strip().lstrip("*&")
        if not re.fullmatch(r"[A-Za-z_]\w*", name):
            # chained expressions (rare) — use the final component
            parts = re.findall(r"[A-Za-z_]\w*", name)
            if not parts:
                return None
            name = parts[-1]
        t = scope.get(name, "")
        if "Mutex" not in t and name not in (
                f.name for f in (self.p.records.get(fn.cls or "") or
                                 Record("", "")).fields.values()):
            if "Mutex" not in t:
                # not resolvable as a mutex in scope: could still be a
                # member referenced in an out-of-line method.
                pass
        owner = None
        if fn.cls and fn.cls in self.p.records \
                and name in self.p.records[fn.cls].fields:
            owner = fn.cls
        elif name in scope and name in local_decls(fn.body):
            lid = f"{fn.qual}::{name}"
            return alias.get(lid, lid)
        elif name in scope:  # parameter
            lid = f"{fn.qual}::{name}"
            return alias.get(lid, lid)
        lid = f"{owner}::{name}" if owner else f"{fn.qual}::{name}"
        return alias.get(lid, lid)

    def mutex_members(self) -> dict[str, Field_]:
        out = {}
        for rec in self.p.records.values():
            for f_ in rec.fields.values():
                bt = base_type(f_.type)
                if bt == "Mutex":
                    out[f"{rec.name}::{f_.name}"] = f_
        return out

    def build_lock_aliases(self) -> dict[str, str]:
        """Unifies Mutex& members/params with the mutex bound at the
        construction site (e.g. CommitPipeline::ledger_mu_ ==
        LiveNode::ledger_mutex_)."""
        alias: dict[str, str] = {}
        # member -> ctor param position, via initializer lists
        for fn in self.p.funcs:
            if fn.cls is None or fn.name != fn.cls or not fn.init_bindings:
                continue
            rec = self.p.records.get(fn.cls)
            if rec is None:
                continue
            for member, init_expr in fn.init_bindings.items():
                f_ = rec.fields.get(member)
                if f_ is None or base_type(f_.type) != "Mutex":
                    continue
                if not re.fullmatch(r"[A-Za-z_]\w*", init_expr):
                    continue
                pidx = next((i for i, p in enumerate(fn.params)
                             if p.name == init_expr), None)
                if pidx is None:
                    continue
                # find construction sites of fn.cls and the pidx-th arg
                for caller in self.p.funcs:
                    if caller.cls == fn.cls:
                        continue
                    for call in iter_calls(caller.body):
                        ctor_hit = (call.name == fn.cls or
                                    (call.name in ("make_unique",
                                                   "make_shared",
                                                   "emplace") and
                                     any(x.text == fn.cls for x in
                                         caller.body[max(0, call.idx - 6):
                                                     call.idx])))
                        if not ctor_hit or pidx >= len(call.args):
                            continue
                        argtxt = "".join(t.text for t in call.args[pidx])
                        if not re.fullmatch(r"[A-Za-z_]\w*", argtxt):
                            continue
                        cscope = self.func_scope_types(caller)
                        if caller.cls and caller.cls in self.p.records and \
                                argtxt in self.p.records[caller.cls].fields:
                            alias[f"{fn.cls}::{member}"] = \
                                f"{caller.cls}::{argtxt}"
                            alias[f"{fn.qual}::{init_expr}"] = \
                                f"{caller.cls}::{argtxt}"
                        elif argtxt in cscope:
                            alias[f"{fn.cls}::{member}"] = \
                                f"{caller.qual}::{argtxt}"
        # Methods of a class with an aliased Mutex& member use the member
        # name; map those too (handled by lock_id via alias table).
        return alias

    def function_acquisitions(self, fn: Func, alias: dict[str, str]):
        """Scans fn's body: yields ('acq', lock, line, depth_at_acq,
        scope_close_idx) for MutexLock RAII acquisitions, plus manual
        .lock()/.unlock() events, ('call', Call, held_locks) and
        ('stream', Tok, held_locks) for a file stream type named while
        a lock is held."""
        body = fn.body
        scope = self.func_scope_types(fn)
        events = []
        held: list[tuple[str, int, int]] = []  # (lock, close_idx, line)
        manual: list[str] = []
        for i, t in enumerate(body):
            # expire RAII scopes
            while held and i > held[-1][1]:
                held.pop()
            if t.kind != "id":
                continue
            if t.text == "MutexLock" and i + 1 < len(body):
                j = i + 1
                if body[j].kind == "id" and j + 1 < len(body) and \
                        body[j + 1].text == "(":
                    close = match_forward(body, j + 1, "(", ")")
                    expr = "".join(x.text for x in body[j + 2:close])
                    lock = self.lock_id(expr, fn, scope, alias)
                    if lock:
                        # scope = enclosing brace: find it by scanning
                        # back for the nearest unclosed '{'
                        close_idx = self._enclosing_scope_end(body, i)
                        events.append(("acq", lock, t.line,
                                       [h[0] for h in held]))
                        held.append((lock, close_idx, t.line))
                continue
            if t.text in ("lock", "unlock") and i >= 2 and \
                    body[i - 1].text in (".", "->") and \
                    i + 1 < len(body) and body[i + 1].text == "(":
                expr = body[i - 2].text
                lock = self.lock_id(expr, fn, scope, alias)
                if lock:
                    if t.text == "lock":
                        events.append(("acq", lock, t.line,
                                       [h[0] for h in held] + manual))
                        manual.append(lock)
                        events.append(("manual_lock", lock, t.line, i))
                    else:
                        if lock in manual:
                            manual.remove(lock)
                        events.append(("manual_unlock", lock, t.line, i))
                continue
        # call events with held sets (second pass, RAII scopes only —
        # good enough: manual lock() is banned outside the trusted core)
        held = []
        calls = iter_calls(body)
        ci = 0
        for i, t in enumerate(body):
            while held and i > held[-1][1]:
                held.pop()
            if t.text == "MutexLock" and i + 1 < len(body) and \
                    body[i + 1].kind == "id" and i + 2 < len(body) and \
                    body[i + 2].text == "(":
                close = match_forward(body, i + 2, "(", ")")
                expr = "".join(x.text for x in body[i + 3:close])
                lock = self.lock_id(expr, fn, scope, alias)
                if lock:
                    close_idx = self._enclosing_scope_end(body, i)
                    held.append((lock, close_idx, t.line))
                continue
            if held and t.kind == "id" and t.text in FILE_STREAMS:
                events.append(("stream", t, [h[0] for h in held], fn))
            while ci < len(calls) and calls[ci].idx < i:
                ci += 1
            if ci < len(calls) and calls[ci].idx == i and held:
                c = calls[ci]
                if c.name not in ("MutexLock",):
                    events.append(("call", c, [h[0] for h in held], fn))
        return events

    @staticmethod
    def _enclosing_scope_end(body: list[Tok], i: int) -> int:
        """Index of the '}' closing the innermost scope containing i."""
        depth = 0
        j = i
        while j < len(body):
            if body[j].text == "{":
                depth += 1
            elif body[j].text == "}":
                if depth == 0:
                    return j
                depth -= 1
            j += 1
        return len(body) - 1

    def check_lock_order(self) -> None:
        alias = self.build_lock_aliases()
        # per-function direct acquisitions + call events
        fn_events = {}
        known_locks = set(self.mutex_members())
        for lid, target in alias.items():
            known_locks.add(target)
        for fn in self.p.funcs:
            if fn.file.replace("\\", "/").endswith(TRUSTED_CORE_FILES):
                continue
            fn_events[fn.qual] = self.function_acquisitions(fn, alias)

        def is_real_lock(lock: str) -> bool:
            # Only mutex members / aliased refs / locals of Mutex type
            # produce edges; unresolved names would pollute the graph.
            if lock in known_locks:
                return True
            cls, _, nm = lock.rpartition("::")
            rec = self.p.records.get(cls.split("::")[-1]) if cls else None
            if rec and nm in rec.fields and \
                    base_type(rec.fields[nm].type) == "Mutex":
                return True
            return False

        # acquires*(f): locks f acquires directly or transitively.
        direct_acq: dict[str, set[str]] = {}
        for qual, events in fn_events.items():
            fns = self.p.by_qual.get(qual, [])
            anns = self.p.annotations_of(fns[0]) if fns else []
            req = {a[len("REQUIRES("):-1] for a in anns
                   if a.startswith("REQUIRES(")}
            acq = set()
            for e in events:
                if e[0] == "acq" and is_real_lock(e[1]):
                    nm = e[1].rpartition("::")[2]
                    if nm not in req:
                        acq.add(e[1])
            direct_acq[qual] = acq

        trans_acq = {q: set(s) for q, s in direct_acq.items()}
        for _ in range(6):  # bounded fixpoint
            changed = False
            for qual, events in fn_events.items():
                fns = self.p.by_qual.get(qual, [])
                if not fns:
                    continue
                fn = fns[0]
                scope = self.func_scope_types(fn)
                for e in events:
                    if e[0] != "call":
                        continue
                    call = e[1]
                    for tgt in self.resolve_call_targets(call, fn, scope):
                        extra = trans_acq.get(tgt.qual, set())
                        if extra - trans_acq[qual]:
                            trans_acq[qual] |= extra
                            changed = True
            # also propagate through calls with no lock held (a caller
            # of f inherits f's acquisitions regardless of held state)
            for fn in self.p.funcs:
                if fn.qual not in trans_acq:
                    continue
                scope = self.func_scope_types(fn)
                for call in iter_calls(fn.body):
                    for tgt in self.resolve_call_targets(call, fn, scope):
                        extra = trans_acq.get(tgt.qual, set())
                        if extra - trans_acq[fn.qual]:
                            trans_acq[fn.qual] |= extra
                            changed = True
            if not changed:
                break

        # edges
        edges: dict[tuple[str, str], tuple[str, int]] = {}
        for qual, events in fn_events.items():
            fns = self.p.by_qual.get(qual, [])
            if not fns:
                continue
            fn = fns[0]
            scope = self.func_scope_types(fn)
            for e in events:
                if e[0] == "acq":
                    _, lock, line, held = e
                    if not is_real_lock(lock):
                        continue
                    for h in held:
                        if is_real_lock(h) and h != lock:
                            edges.setdefault((h, lock), (fn.file, line))
                elif e[0] == "call":
                    call, held = e[1], e[2]
                    for tgt in self.resolve_call_targets(call, fn, scope):
                        # REQUIRES(l) callees don't re-acquire l
                        anns = self.p.annotations_of(tgt)
                        req = {a[len("REQUIRES("):-1] for a in anns
                               if a.startswith("REQUIRES(")}
                        for acquired in trans_acq.get(tgt.qual, ()):  #
                            nm = acquired.rpartition("::")[2]
                            if nm in req:
                                continue
                            for h in held:
                                if is_real_lock(h) and is_real_lock(acquired) \
                                        and h != acquired:
                                    edges.setdefault((h, acquired),
                                                     (fn.file, call.line))

        # cycles (DFS over the lock graph)
        graph: dict[str, set[str]] = {}
        for (a, b) in edges:
            graph.setdefault(a, set()).add(b)
        state: dict[str, int] = {}
        stack: list[str] = []
        cycles: list[list[str]] = []

        def dfs(v: str) -> None:
            state[v] = 1
            stack.append(v)
            for w in sorted(graph.get(v, ())):
                if state.get(w, 0) == 0:
                    dfs(w)
                elif state.get(w) == 1:
                    k = stack.index(w)
                    cyc = stack[k:] + [w]
                    cycles.append(cyc)
            stack.pop()
            state[v] = 2

        for v in sorted(graph):
            if state.get(v, 0) == 0:
                dfs(v)
        seen_cyc = set()
        for cyc in cycles:
            key = frozenset(cyc)
            if key in seen_cyc:
                continue
            seen_cyc.add(key)
            wfile, wline = edges.get((cyc[0], cyc[1]), ("<graph>", 0))
            if self.allow.allowed("lock-order", *cyc):
                continue
            self.findings.append(Finding(
                wfile, wline, "lock-order",
                "mutex acquisition cycle: " + " -> ".join(cyc) +
                " (a thread in each arc deadlocks the other)"))

        # documented order
        rank: dict[str, int] = {}
        for r, group in enumerate(DOC_LOCK_ORDER):
            for lock in group:
                rank[lock] = r
        for (a, b), (wfile, wline) in sorted(edges.items()):
            if a in rank and b in rank and rank[a] >= rank[b]:
                if self.allow.allowed("lock-order", a, b,
                                      f"{a}>{b}"):
                    continue
                self.findings.append(Finding(
                    wfile, wline, "lock-order",
                    f"acquires {b} while holding {a}, contradicting the "
                    "documented order decisions_mutex_ > ledger_mutex_ > "
                    "pipeline internals"))

    # ==================================================================
    # Checker 2: epoch-taint
    # ==================================================================

    def writer_vars(self, fn: Func) -> set[str]:
        out = set()
        for prm in fn.params:
            if "Writer" in prm.type and prm.name:
                out.add(prm.name)
        for name, t in local_decls(fn.body).items():
            if base_type(t) == "Writer":
                out.add(name)
        return out

    def binds_epoch_map(self) -> dict[str, bool]:
        binds: dict[str, bool] = {}
        funcs = [f for f in self.p.funcs if self.writer_vars(f)]
        for fn in funcs:
            binds[fn.qual] = False

        def direct(fn: Func, writers: set[str]) -> bool:
            for call in iter_calls(fn.body):
                if call.recv and call.recv[-1] in writers and \
                        call.name in WIRE_READS | {"encode"}:
                    argtxt = " ".join(t.text for a in call.args for t in a)
                    if EPOCH_RE.search(argtxt):
                        return True
            return False

        for fn in funcs:
            if direct(fn, self.writer_vars(fn)):
                binds[fn.qual] = True

        for _ in range(8):
            changed = False
            for fn in funcs:
                if binds[fn.qual]:
                    continue
                writers = self.writer_vars(fn)
                scope = self.func_scope_types(fn)
                for call in iter_calls(fn.body):
                    passes_writer = any(
                        len(a) == 1 and a[0].text in writers
                        for a in call.args)
                    recv_writer = bool(call.recv) and call.recv[-1] in writers
                    if not passes_writer and not recv_writer:
                        continue
                    if recv_writer:
                        continue  # w.u32(x) handled by direct()
                    for tgt in self.resolve_call_targets(call, fn, scope):
                        if binds.get(tgt.qual):
                            binds[fn.qual] = True
                            changed = True
                            break
                    if binds[fn.qual]:
                        break
            if not changed:
                break
        return binds

    def check_epoch_taint(self) -> None:
        binds = self.binds_epoch_map()
        for fn in self.p.funcs:
            if not SIGNING_SINK.search(fn.name):
                continue
            if not self.writer_vars(fn):
                continue
            if binds.get(fn.qual):
                continue
            if self.allow.allowed("epoch-taint", fn.qual, fn.name, fn.file):
                continue
            self.findings.append(Finding(
                fn.file, fn.line, "epoch-taint",
                f"{fn.qual} never binds an epoch field into its signed "
                "bytes (checked through the call graph and record field "
                "types): the signature is replayable across membership "
                "generations"))

    # ==================================================================
    # Checker 3: bounded-decode
    # ==================================================================

    def reader_vars(self, fn: Func) -> set[str]:
        out = set()
        for prm in fn.params:
            if "Reader" in prm.type and prm.name:
                out.add(prm.name)
        for name, t in local_decls(fn.body).items():
            if base_type(t) == "Reader":
                out.add(name)
        return out

    def check_bounded_decode(self) -> None:
        for fn in self.p.funcs:
            posix = fn.file.replace("\\", "/")
            if posix.endswith(TRUSTED_CORE_FILES):
                continue
            readers = self.reader_vars(fn)
            decodeish = bool(DECODE_NAMES.match(fn.name)) or bool(readers)
            if not decodeish:
                continue
            body = fn.body
            texts = [t.text for t in body]

            # (a) wire counts feeding allocations must be guarded
            count_vars: dict[str, int] = {}  # name -> decl token idx
            guarded: set[str] = set()
            i = 0
            while i < len(body) - 4:
                # pattern:  NAME = r.METHOD(  where METHOD reads a count
                if body[i].kind == "id" and body[i + 1].text == "=" and \
                        i + 4 < len(body) and body[i + 2].kind == "id" and \
                        body[i + 2].text in readers and \
                        body[i + 3].text in (".", "->") and \
                        body[i + 4].kind == "id":
                    m = body[i + 4].text
                    if m in COUNT_READS:
                        count_vars[body[i].text] = i
                    elif m == "length_prefix":
                        count_vars[body[i].text] = i
                        guarded.add(body[i].text)  # guarded at the source
                i += 1
            # guard conditions: any condition mentioning var AND
            # remaining/size before its allocation use
            cond_spans = []  # (start, end) token ranges of conditions
            for i, t in enumerate(body):
                if t.text in ("if", "while") and i + 1 < len(body) and \
                        body[i + 1].text == "(":
                    close = match_forward(body, i + 1, "(", ")")
                    cond_spans.append((i + 1, close))
            for cond, loop_body, hdr in classic_for_loops(body):
                pass  # loop conditions bound trip counts, not allocs

            def guarded_before(var: str, use_idx: int) -> bool:
                if var in guarded:
                    return True
                for (s, e) in cond_spans:
                    if s > use_idx:
                        continue
                    span = texts[s:e]
                    if var in span and any(
                            x in ("remaining", "size") for x in span):
                        return True
                return False

            for i, t in enumerate(body):
                if t.text in ("reserve", "resize") and i >= 2 and \
                        body[i - 1].text in (".", "->") and \
                        i + 1 < len(body) and body[i + 1].text == "(":
                    close = match_forward(body, i + 1, "(", ")")
                    arg_ids = [x.text for x in body[i + 2:close]
                               if x.kind == "id"]
                    bad = [v for v in arg_ids if v in count_vars
                           and not guarded_before(v, i)]
                    for v in bad:
                        if self.allow.allowed("bounded-decode", fn.qual,
                                              fn.file):
                            continue
                        self.findings.append(Finding(
                            fn.file, t.line, "bounded-decode",
                            f"{fn.qual} calls {body[i-2].text}."
                            f"{t.text}({v}) with a wire-read count never "
                            "checked against remaining input: a tiny "
                            "frame can demand an arbitrary allocation "
                            "(use Reader::length_prefix)"))

            # (b) raw buffer access must sit under a size comparison
            wire_bufs = set()
            for prm in fn.params:
                if base_type(prm.type) in ("BytesView", "Bytes") and prm.name:
                    wire_bufs.add(prm.name)
            if fn.cls and fn.cls in self.p.records:
                for f_ in self.p.records[fn.cls].fields.values():
                    if base_type(f_.type) in ("Bytes", "BytesView") or \
                            "vector < std :: uint8_t" in f_.type or \
                            "vector<std::uint8_t" in f_.type.replace(" ", ""):
                        wire_bufs.add(f_.name)
            if not wire_bufs:
                continue

            def size_check_before(buf: str, idx: int) -> bool:
                for (s, e) in cond_spans:
                    if s > idx:
                        continue
                    span = texts[s:e]
                    if buf in span and any(x in ("size", "remaining", "empty")
                                           for x in span):
                        return True
                return False

            for i, t in enumerate(body):
                hit = None
                if t.text == "[" and i >= 1 and body[i - 1].kind == "id" \
                        and body[i - 1].text in wire_bufs:
                    hit = body[i - 1].text
                elif t.text == "data" and i >= 2 and \
                        body[i - 1].text in (".", "->") and \
                        body[i - 2].text in wire_bufs and \
                        i + 2 < len(body) and body[i + 1].text == "(" and \
                        body[i + 3].text in ("+", "-"):
                    hit = body[i - 2].text
                if hit is None:
                    continue
                if size_check_before(hit, i):
                    continue
                if self.allow.allowed("bounded-decode", fn.qual, fn.file):
                    continue
                self.findings.append(Finding(
                    fn.file, t.line, "bounded-decode",
                    f"{fn.qual} indexes wire buffer `{hit}` without a "
                    "dominating size check: out-of-bounds read on "
                    "adversarial input"))

    # ==================================================================
    # Checker 4: wire-schema
    # ==================================================================

    OP_NORMALIZE = {"i64": "u64", "string": "bytes", "boolean": "u8",
                    "u8": "u8", "u16": "u16", "u32": "u32", "u64": "u64",
                    "varint": "varint", "raw": "raw", "bytes": "bytes",
                    "length_prefix": "varint",
                    # view() reads the same bytes as raw(), uncopied
                    "view": "raw"}

    def extract_ops(self, fn: Func, direction: str,
                    depth: int = 0) -> list:
        """Op sequence of an encode/decode body.

        Ops: "u8"|"u16"|...|"raw"|"bytes"|"varint",
             ["rec", TypeName], ["loop", [ops...]]
        """
        if depth > 6:
            return []
        if direction == "encode":
            cursors = self.writer_vars(fn)
        else:
            cursors = self.reader_vars(fn)
        top_scope = self.func_scope_types(fn)

        def walk(body: list[Tok], scope: dict[str, str]) -> list:
            ops: list = []
            loops = []
            for decl, expr, bslice, hdr in range_for_loops(body):
                loops.append((hdr, bslice, decl, expr))
            for cond, bslice, hdr in classic_for_loops(body):
                loops.append((hdr, bslice, None, None))
            loops.sort(key=lambda x: x[0])
            li = 0
            calls = iter_calls(body)
            ci = 0
            i = 0
            while i < len(body):
                if li < len(loops) and loops[li][0] == i:
                    hdr, bslice, decl, expr = loops[li]
                    inner_scope = scope
                    if decl is not None and expr is not None:
                        # type the loop variable from the container's
                        # element type so `v.encode(w)` resolves inside
                        inner_scope = dict(scope)
                        lv = next((t.text for t in reversed(decl)
                                   if t.kind == "id" and
                                   t.text not in ("auto", "const")), None)
                        et = self._expr_elem_type(expr, fn, scope)
                        if lv and et:
                            inner_scope[lv] = et
                    inner = walk(bslice[1:-1] if bslice and
                                 bslice[0].text == "{" else bslice,
                                 inner_scope)
                    if inner:
                        ops.append(["loop", inner])
                    # skip past the loop body
                    end_idx = hdr
                    last = bslice[-1] if bslice else None
                    if last is not None:
                        for j in range(hdr, len(body)):
                            if body[j] is last:
                                end_idx = j
                                break
                    # drop calls consumed inside the loop
                    while ci < len(calls) and calls[ci].idx <= end_idx:
                        ci += 1
                    li += 1
                    while li < len(loops) and loops[li][0] <= end_idx:
                        li += 1
                    i = end_idx + 1
                    continue
                while ci < len(calls) and calls[ci].idx < i:
                    ci += 1
                if ci < len(calls) and calls[ci].idx == i:
                    call = calls[ci]
                    op = self._call_op(call, fn, cursors, scope, direction,
                                       depth)
                    if op is not None:
                        if isinstance(op, list) and op and op[0] == "splice":
                            ops.extend(op[1])
                        else:
                            ops.append(op)
                        ci += 1
                        i = call.close + 1
                        continue
                    ci += 1
                i += 1
            return ops

        inner = fn.body[1:-1] if fn.body and fn.body[0].text == "{" \
            else fn.body
        return walk(inner, top_scope)

    def _expr_elem_type(self, expr: list[Tok], fn: Func,
                        scope: dict[str, str]) -> str | None:
        """Element type name of a range-for container expression."""
        ids = [t.text for t in expr if t.kind == "id"]
        if not ids:
            return None
        tstr: str | None = None
        if len(ids) == 1:
            tstr = scope.get(ids[0])
        else:
            first = ids[0]
            if first == "this":
                cur: str | None = fn.cls
                rest = ids[1:]
            elif first in scope:
                cur = base_type(scope[first])
                rest = ids[1:]
            else:
                return None
            for part in rest:
                rec = self.p.records.get(cur or "")
                if rec is None or part not in rec.fields:
                    return None
                tstr = rec.fields[part].type
                cur = base_type(tstr)
        if tstr is None:
            return None
        return element_type(tstr)

    def _call_op(self, call: Call, fn: Func, cursors: set[str],
                 scope: dict[str, str], direction: str, depth: int):
        # cursor primitive: w.u32(...) / r.u32()
        if call.recv and call.recv[-1] in cursors:
            if call.name in self.OP_NORMALIZE:
                return self.OP_NORMALIZE[call.name]
            return None
        # record codec: X::decode(r) / x.encode(w) / X::deserialize(r)
        if direction == "decode":
            if call.name in ("decode", "deserialize") and len(call.path) >= 2:
                rec = call.path[-2]
                if rec in self.p.records:
                    return ["rec", rec]
            # helper taking the reader: splice (read_hash(r) etc.)
            passes_cursor = any(len(a) == 1 and a[0].text in cursors
                                for a in call.args)
            if passes_cursor:
                for tgt in self.resolve_call_targets(call, fn, scope):
                    if tgt.cls is None and tgt.name not in ("decode",):
                        sub = self.extract_ops(tgt, "decode", depth + 1)
                        return ["splice", sub]
            # helper taking the input buffer and reading it through a
            # Reader of its own (a record walker): splice it too
            buffers = {p.name for p in fn.params if p.name and
                       base_type(p.type) in ("BytesView", "Bytes")}
            passes_buffer = any(len(a) == 1 and a[0].text in buffers
                                for a in call.args)
            if passes_buffer:
                for tgt in self.resolve_call_targets(call, fn, scope):
                    if tgt.cls is None and tgt.name not in ("decode",) \
                            and self.reader_vars(tgt):
                        sub = self.extract_ops(tgt, "decode", depth + 1)
                        return ["splice", sub]
            return None
        # encode side
        if call.name in ("encode", "serialize") and call.recv:
            rt = self.resolve_chain_type(call.recv, fn, scope)
            if rt and rt in self.p.records:
                return ["rec", rt]
            if call.recv[-1] in scope:
                et = element_type(scope[call.recv[-1]])
                if et and et in self.p.records:
                    return ["rec", et]
            return None
        passes_cursor = any(len(a) == 1 and a[0].text in cursors
                            for a in call.args)
        if passes_cursor and call.name not in ("encode", "serialize"):
            for tgt in self.resolve_call_targets(call, fn, scope):
                if tgt.cls is None or tgt.cls == fn.cls:
                    sub = self.extract_ops(tgt, "encode", depth + 1)
                    if sub:
                        return ["splice", sub]
        return None

    def wire_functions(self) -> dict[str, dict[str, Func]]:
        """record/free-fn name -> {"encode": Func, "decode": Func}."""
        out: dict[str, dict[str, Func]] = {}
        for fn in self.p.funcs:
            posix = fn.file.replace("\\", "/")
            if posix.endswith(TRUSTED_CORE_FILES):
                continue
            is_enc = bool(ENCODE_NAMES.match(fn.name))
            is_dec = bool(DECODE_NAMES.match(fn.name))
            if not (is_enc or is_dec):
                continue
            if fn.cls:
                if fn.name in ("encode", "serialize", "decode",
                               "deserialize"):
                    key = fn.cls
                else:
                    # encode_pofs-style statics are rare; treat as free
                    key = fn.name
            else:
                # free encode_X / decode_X pair on the suffix
                m = re.match(r"^(encode|decode)_(\w+)$", fn.name)
                key = m.group(2) if m else fn.name
            slot = "encode" if is_enc else "decode"
            out.setdefault(key, {})
            # keep the first definition (headers may duplicate via
            # inline defs; identical anyway)
            out[key].setdefault(slot, fn)
        return out

    @classmethod
    def normalize_ops(cls, ops: list) -> list:
        out = []
        for op in ops:
            if isinstance(op, str):
                out.append(cls.OP_NORMALIZE.get(op, op))
            elif op[0] == "loop":
                inner = cls.normalize_ops(op[1])
                if inner:
                    out.append(["loop", inner])
            elif op[0] == "rec":
                out.append(["rec", op[1]])
        return out

    def extract_schema(self) -> dict:
        schema: dict[str, dict] = {}
        for key, slots in sorted(self.wire_functions().items()):
            entry = {}
            for slot, fn in sorted(slots.items()):
                ops = self.normalize_ops(self.extract_ops(fn, slot))
                if ops:
                    entry[slot] = ops
            if entry:
                schema[key] = entry
        tags = self.extract_msg_tags()
        return {"records": schema, "message_tags": tags}

    def extract_msg_tags(self) -> dict[str, int]:
        # MsgTag enum: parse from any file's tokens — we kept enums out
        # of the model, so re-scan the raw text of messages.hpp.
        tags: dict[str, int] = {}
        for fn in self.p.funcs:
            pass
        for path, text in getattr(self, "_raw_files", {}).items():
            m = re.search(r"enum\s+class\s+MsgTag[^{]*\{(.*?)\}", text,
                          re.S)
            if not m:
                continue
            body = re.sub(r"//[^\n]*|/\*.*?\*/", "", m.group(1), flags=re.S)
            value = 0
            for part in body.split(","):
                part = part.strip()
                if not part:
                    continue
                if "=" in part:
                    name, _, val = part.partition("=")
                    try:
                        value = int(val.strip(), 0)
                    except ValueError:
                        continue
                    tags[name.strip()] = value
                else:
                    value += 1
                    tags[part] = value
        return tags

    def check_wire_schema(self, golden_path: Path | None,
                          write_golden: bool,
                          out_schema: Path | None) -> dict:
        schema = self.extract_schema()
        # symmetry per record
        for key, entry in sorted(schema["records"].items()):
            enc, dec = entry.get("encode"), entry.get("decode")
            wf = self.wire_functions().get(key, {})
            where = wf.get("encode") or wf.get("decode")
            file = where.file if where else "<schema>"
            line = where.line if where else 0
            if enc is None or dec is None:
                missing = "decode" if dec is None else "encode"
                present = enc if dec is None else dec
                if self._envelope_ok(present, schema["records"]):
                    # Tag-dispatch envelope: every byte it moves is a
                    # record whose own codec pair is symmetric; the
                    # missing half IS that record's other codec, reached
                    # through the frame dispatcher.
                    continue
                if self.allow.allowed("wire-schema", key, file):
                    continue
                self.findings.append(Finding(
                    file, line, "wire-schema",
                    f"{key} has an {'encode' if dec is None else 'decode'} "
                    f"side but no extractable {missing} counterpart: the "
                    "two halves of the wire format can drift unreviewed"))
                continue
            if enc != dec:
                if self.allow.allowed("wire-schema", key, file):
                    continue
                self.findings.append(Finding(
                    file, line, "wire-schema",
                    f"{key}: encode writes {self.fmt_ops(enc)} but decode "
                    f"reads {self.fmt_ops(dec)} — field-level asymmetry "
                    "(width, order or count) between the two wire halves"))
        if out_schema is not None:
            out_schema.parent.mkdir(parents=True, exist_ok=True)
            out_schema.write_text(json.dumps(schema, indent=1,
                                             sort_keys=True) + "\n")
        if golden_path is not None:
            if write_golden:
                golden_path.write_text(json.dumps(schema, indent=1,
                                                  sort_keys=True) + "\n")
            elif golden_path.exists():
                golden = json.loads(golden_path.read_text())
                self.diff_schema(golden, schema, golden_path)
            else:
                self.findings.append(Finding(
                    str(golden_path), 0, "wire-schema",
                    "golden schema missing — run with --write-golden and "
                    "commit the result"))
        return schema

    @staticmethod
    def _envelope_ok(ops: list, records: dict) -> bool:
        """True when a one-sided codec moves only symmetric records
        (so its other half is the record codec behind tag dispatch)."""
        recs = [op for op in ops if isinstance(op, list) and op[0] == "rec"]
        if not recs or len(recs) != len(ops):
            return False
        for _, rname in recs:
            entry = records.get(rname, {})
            if "encode" not in entry or "decode" not in entry or \
                    entry["encode"] != entry["decode"]:
                return False
        return True

    def diff_schema(self, golden: dict, schema: dict,
                    golden_path: Path) -> None:
        grec = golden.get("records", {})
        srec = schema.get("records", {})
        for key in sorted(set(grec) | set(srec)):
            if key not in srec:
                self.findings.append(Finding(
                    str(golden_path), 0, "wire-schema",
                    f"{key} present in the golden schema but no longer "
                    "extractable from the sources (message deleted or "
                    "encoder moved?) — regenerate the golden if "
                    "intentional (--write-golden)"))
            elif key not in grec:
                self.findings.append(Finding(
                    str(golden_path), 0, "wire-schema",
                    f"{key} is a NEW wire record not in the golden schema "
                    "— review the format and regenerate the golden "
                    "(--write-golden)"))
            elif grec[key] != srec[key]:
                self.findings.append(Finding(
                    str(golden_path), 0, "wire-schema",
                    f"{key} wire format drifted from the golden: golden "
                    f"{self.fmt_entry(grec[key])} vs source "
                    f"{self.fmt_entry(srec[key])} — wire format changes "
                    "must be explicit (--write-golden + review)"))
        if golden.get("message_tags") != schema.get("message_tags"):
            self.findings.append(Finding(
                str(golden_path), 0, "wire-schema",
                "MsgTag numbering drifted from the golden schema"))

    @classmethod
    def fmt_ops(cls, ops: list) -> str:
        parts = []
        for op in ops:
            if isinstance(op, str):
                parts.append(op)
            elif op[0] == "loop":
                parts.append("loop[" + cls.fmt_ops(op[1]) + "]")
            elif op[0] == "rec":
                parts.append(op[1])
        return " ".join(parts)

    @classmethod
    def fmt_entry(cls, entry: dict) -> str:
        return "{" + ", ".join(
            f"{slot}: {cls.fmt_ops(ops)}" for slot, ops in
            sorted(entry.items())) + "}"

    # ==================================================================
    # Checker 5: lock-blocking
    # ==================================================================

    def may_block_map(self) -> dict[str, bool]:
        may: dict[str, bool] = {}
        for fn in self.p.funcs:
            direct = False
            for call in iter_calls(fn.body):
                if call.name in BLOCKING_LEAVES:
                    direct = True
                    break
            for t in fn.body:
                if t.kind == "id" and t.text in FILE_STREAMS:
                    direct = True
                    break
            may[fn.qual] = direct
        for _ in range(6):
            changed = False
            for fn in self.p.funcs:
                if may[fn.qual]:
                    continue
                scope = self.func_scope_types(fn)
                for call in iter_calls(fn.body):
                    for tgt in self.resolve_call_targets(call, fn, scope):
                        if may.get(tgt.qual):
                            may[fn.qual] = True
                            changed = True
                            break
                    if may[fn.qual]:
                        break
            if not changed:
                break
        return may

    def check_lock_blocking(self) -> None:
        may = self.may_block_map()
        alias = self.build_lock_aliases()
        for fn in self.p.funcs:
            posix = fn.file.replace("\\", "/")
            if posix.endswith(TRUSTED_CORE_FILES):
                continue
            scope = self.func_scope_types(fn)
            for e in self.function_acquisitions(fn, alias):
                blocking_tgt = None
                if e[0] == "stream":
                    line, held = e[1].line, e[2]
                    blocking_tgt = f"std::{e[1].text}"
                elif e[0] == "call":
                    call, held = e[1], e[2]
                    line = call.line
                    if call.name in BLOCKING_LEAVES:
                        blocking_tgt = call.name
                    else:
                        for tgt in self.resolve_call_targets(call, fn,
                                                             scope):
                            if may.get(tgt.qual):
                                blocking_tgt = tgt.qual
                                break
                if blocking_tgt is None:
                    continue
                if self.allow.allowed("lock-blocking", fn.qual, fn.file,
                                      *held):
                    continue
                self.findings.append(Finding(
                    fn.file, line, "lock-blocking",
                    f"{fn.qual} reaches blocking call {blocking_tgt} "
                    f"while holding {', '.join(sorted(set(held)))} "
                    "(found through the call graph): every thread "
                    "contending on that lock stalls on the I/O"))
            # throwing calls between manual lock()/unlock()
            self._check_manual_lock_throw(fn, alias, scope)

    def _check_manual_lock_throw(self, fn: Func, alias: dict[str, str],
                                 scope: dict[str, str]) -> None:
        body = fn.body
        open_locks: list[tuple[str, int]] = []
        for i, t in enumerate(body):
            if t.text in ("lock", "unlock") and i >= 2 and \
                    body[i - 1].text in (".", "->") and \
                    i + 1 < len(body) and body[i + 1].text == "(" and \
                    body[i + 2].text == ")":
                lock = self.lock_id(body[i - 2].text, fn, scope, alias)
                if lock is None:
                    continue
                if t.text == "lock":
                    open_locks.append((lock, i))
                else:
                    open_locks = [(l, k) for (l, k) in open_locks
                                  if l != lock]
                continue
            if t.text == "throw" and open_locks:
                if self.allow.allowed("lock-blocking", fn.qual, fn.file):
                    continue
                self.findings.append(Finding(
                    fn.file, t.line, "lock-blocking",
                    f"{fn.qual} may throw between manual "
                    f"{open_locks[-1][0]}.lock() and .unlock(): the lock "
                    "leaks on the exception path (use MutexLock RAII)"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

CHECKERS = ("lock-order", "epoch-taint", "bounded-decode", "wire-schema",
            "lock-blocking")


def collect_files(roots: list[str]) -> dict[Path, str]:
    files: dict[Path, str] = {}
    for root in roots:
        rp = Path(root)
        if rp.is_file():
            files[rp] = rp.read_text(errors="replace")
            continue
        if not rp.is_dir():
            raise SystemExit(f"zlb_analyze: no such directory: {root}")
        for path in sorted(rp.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                files[path] = path.read_text(errors="replace")
    return files


def build_program(files: dict[Path, str], frontend: str,
                  compdb: str | None) -> Program:
    if frontend in ("clang", "auto"):
        try:
            from clang_frontend import load_clang_frontend  # noqa: PLC0415
            return load_clang_frontend(files, compdb)
        except Exception as exc:  # noqa: BLE001 - degrade gracefully
            if frontend == "clang":
                raise SystemExit(
                    f"zlb_analyze: clang frontend unavailable: {exc}")
            print(f"zlb_analyze: clang frontend unavailable ({exc}); "
                  "falling back to the pure-Python parser", file=sys.stderr)
    return load_python_frontend(files)


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", action="append", required=True,
                    help="directory tree (or single file) to analyze "
                         "(repeatable)")
    ap.add_argument("--allow", type=Path, default=None,
                    help="allowlist file (checker:token lines)")
    ap.add_argument("--checker", action="append", default=None,
                    help=f"run only these checkers (default: all of "
                         f"{', '.join(CHECKERS)})")
    ap.add_argument("--frontend", choices=("auto", "clang", "python"),
                    default="auto")
    ap.add_argument("--compdb", default=None,
                    help="directory containing compile_commands.json "
                         "(clang frontend)")
    ap.add_argument("--schema-golden", type=Path, default=None,
                    help="golden wire schema JSON to diff against")
    ap.add_argument("--write-golden", action="store_true",
                    help="regenerate the golden schema instead of diffing")
    ap.add_argument("--emit-schema", type=Path, default=None,
                    help="also write the extracted schema here (CI artifact)")
    ap.add_argument("--json", type=Path, default=None,
                    help="write findings as JSON here (CI artifact)")
    ap.add_argument("--warn-unused-allow", action="store_true",
                    help="fail when allowlist entries go unused")
    args = ap.parse_args(argv)

    selected = args.checker or list(CHECKERS)
    unknown = [c for c in selected if c not in CHECKERS]
    if unknown:
        print(f"zlb_analyze: unknown checker(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    files = collect_files(args.root)
    program = build_program(files, args.frontend, args.compdb)
    allow = Allowlist(args.allow)
    az = Analyzer(program, allow)
    az._raw_files = {p: t for p, t in files.items()}  # for enum extraction

    if "lock-order" in selected:
        az.check_lock_order()
    if "epoch-taint" in selected:
        az.check_epoch_taint()
    if "bounded-decode" in selected:
        az.check_bounded_decode()
    if "wire-schema" in selected:
        az.check_wire_schema(args.schema_golden, args.write_golden,
                             args.emit_schema)
    if "lock-blocking" in selected:
        az.check_lock_blocking()

    for f in sorted(az.findings, key=lambda x: (x.file, x.line, x.checker)):
        print(f)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(
            {"frontend": program.frontend,
             "findings": [f.as_json() for f in az.findings]},
            indent=1, sort_keys=True) + "\n")
    unused = allow.unused()
    if unused and args.warn_unused_allow:
        for checker, tok in unused:
            print(f"zlb_analyze: unused allowlist entry {checker}:{tok}",
                  file=sys.stderr)
        if not az.findings:
            return 1
    if az.findings:
        print(f"zlb_analyze: {len(az.findings)} finding(s) "
              f"[frontend={program.frontend}]", file=sys.stderr)
    return 1 if az.findings else 0


if __name__ == "__main__":
    sys.exit(main())
