// zlb_analyze fixture: MUST keep failing the lock-blocking checker.
// The blocking call sits behind a std::unique_ptr member whose pointee
// type is namespace-qualified: resolving the member call needs the
// element type `store::Disk`, not its namespace `store`.
#include <cstdio>
#include <memory>

#include "common/mutex.hpp"

namespace fx {
namespace store {

class Disk {
 public:
  void save();
};

void Disk::save() {
  std::FILE* f = std::fopen("/tmp/fx-owned", "wb");
  if (f != nullptr) std::fclose(f);
}

}  // namespace store

class Node {
 public:
  void checkpoint();

 private:
  zlb::common::Mutex mu_;
  std::unique_ptr<store::Disk> disk_;
};

void Node::checkpoint() {
  const zlb::common::MutexLock lock(mu_);
  disk_->save();  // BUG: reaches fopen while mu_ is held
}

}  // namespace fx
