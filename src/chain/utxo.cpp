#include "chain/utxo.hpp"

#include <algorithm>

namespace zlb::chain {

const char* to_string(TxCheck c) {
  switch (c) {
    case TxCheck::kOk: return "ok";
    case TxCheck::kMalformed: return "malformed";
    case TxCheck::kMissingInput: return "missing-input";
    case TxCheck::kWrongOwner: return "wrong-owner";
    case TxCheck::kBadSignature: return "bad-signature";
    case TxCheck::kOverspend: return "overspend";
    case TxCheck::kValueMismatch: return "value-mismatch";
  }
  return "?";
}

OutPoint UtxoSet::mint(const Address& to, Amount value) {
  // Synthesize a unique outpoint from a counter-based pseudo txid.
  Writer w;
  w.string("zlb-genesis-mint");
  w.u64(mint_counter_++);
  OutPoint op;
  op.txid = crypto::sha256(BytesView(w.data().data(), w.data().size()));
  op.index = 0;
  create(op, TxOut{value, to});
  return op;
}

void UtxoSet::create(const OutPoint& op, const TxOut& out) {
  table_[op] = out;
  spent_values_.erase(op);
  note(op);
}

void UtxoSet::spend(const OutPoint& op) {
  const auto it = table_.find(op);
  if (it != table_.end()) {
    spent_values_.insert_or_assign(op, it->second.value);
    table_.erase(it);
  }
  note(op);
}

std::optional<TxOut> UtxoSet::get(const OutPoint& op) const {
  const auto it = table_.find(op);
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

TxCheck UtxoSet::check(const Transaction& tx, bool verify_sigs) const {
  if (!tx.well_formed()) return TxCheck::kMalformed;
  const crypto::Hash32 digest = tx.body_digest();
  Amount sum_in = 0;
  for (const auto& in : tx.inputs) {
    const auto it = table_.find(in.prev);
    if (it == table_.end()) return TxCheck::kMissingInput;
    if (!(Address::of(in.pubkey) == it->second.to)) {
      return TxCheck::kWrongOwner;
    }
    if (in.value != it->second.value) return TxCheck::kValueMismatch;
    if (verify_sigs) {
      const auto sig =
          crypto::Signature::from_bytes(BytesView(in.sig.data(), 64));
      // Decompress through the memo: repeat spenders (and multi-input
      // transactions from one key) pay the square root only once, and
      // valid/invalid signatures now cost the same on the apply path.
      const crypto::AffinePoint* q = pk_cache_.get(in.pubkey);
      if (!sig || q == nullptr ||
          !crypto::verify_digest(*q, digest, *sig)) {
        return TxCheck::kBadSignature;
      }
    }
    sum_in += it->second.value;
  }
  if (tx.total_out() > sum_in) return TxCheck::kOverspend;
  return TxCheck::kOk;
}

TxCheck UtxoSet::apply(const Transaction& tx, bool verify_sigs) {
  const TxCheck result = check(tx, verify_sigs);
  if (result != TxCheck::kOk) return result;
  for (const auto& in : tx.inputs) spend(in.prev);
  insert_outputs(tx);
  return TxCheck::kOk;
}

void UtxoSet::insert_outputs(const Transaction& tx) {
  const TxId txid = tx.id();
  for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
    create(OutPoint{txid, i}, tx.outputs[i]);
  }
}

std::optional<Amount> UtxoSet::value_of(const OutPoint& op) const {
  if (const auto it = table_.find(op); it != table_.end()) {
    return it->second.value;
  }
  const auto it = spent_values_.find(op);
  if (it == spent_values_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<OutPoint, TxOut>> UtxoSet::entries() const {
  std::vector<std::pair<OutPoint, TxOut>> out(table_.begin(), table_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return out;
}

std::vector<std::pair<OutPoint, Amount>> UtxoSet::ever_entries() const {
  std::vector<std::pair<OutPoint, Amount>> out;
  out.reserve(table_.size() + spent_values_.size());
  for (const auto& [op, txo] : table_) out.emplace_back(op, txo.value);
  out.insert(out.end(), spent_values_.begin(), spent_values_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return out;
}

void UtxoSet::restore(Contents contents) {
  table_ = std::move(contents.live);
  spent_values_ = std::move(contents.spent);
  mint_counter_ = contents.mint_counter;
  touched_.clear();
}

Amount UtxoSet::balance(const Address& a) const {
  Amount sum = 0;
  for (const auto& [op, out] : table_) {
    if (out.to == a) sum += out.value;
  }
  return sum;
}

std::vector<std::pair<OutPoint, TxOut>> UtxoSet::owned_by(
    const Address& a) const {
  std::vector<std::pair<OutPoint, TxOut>> out;
  for (const auto& [op, txo] : table_) {
    if (txo.to == a) out.emplace_back(op, txo);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return out;
}

}  // namespace zlb::chain
