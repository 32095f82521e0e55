// zlb_analyze fixture: MUST keep failing the lock-blocking checker.
// It pins the COMMIT PATH shape: the pre-pipeline decide→commit→apply
// path ran signature verification, UTXO apply and the journal fsync
// while holding the node-wide decisions lock — every client admission
// and metrics read stalled on disk latency once per decided instance.
// The commit pipeline moved those stages onto dedicated threads outside
// the lock; this fixture keeps the checker honest so the pattern cannot
// creep back.
#include <cstdio>

namespace fixture {

class Mutex {
 public:
  void lock() {}
  void unlock() {}
};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

struct Block {
  const char* bytes = "";
};

class Node {
 public:
  // The anti-pattern: decide handler applies + journals inline under
  // the decisions lock instead of handing off to the commit pipeline.
  void on_decided(const Block& block) {
    const MutexLock lock(decisions_mu_);
    apply(block);
    std::FILE* f = fopen("journal.wal", "a");
    if (f != nullptr) {
      fwrite(block.bytes, 1, 1, f);
      fflush(f);
      fclose(f);
    }
  }

 private:
  void apply(const Block&) {}

  Mutex decisions_mu_;
};

}  // namespace fixture
