// zlb_analyze fixture: MUST keep failing the lock-blocking checker.
// A file stream constructed inside the held lock scope: the constructor
// opens the file and the destructor flushes and closes it, all under
// mu_. No call to a blocking function is spelled out, so only treating
// the stream's construction as a blocking call catches it.
#include <fstream>

#include "common/mutex.hpp"

namespace fx {

class Exporter {
 public:
  void dump(const char* path);

 private:
  zlb::common::Mutex mu_;
  int rows_ = 0;
};

void Exporter::dump(const char* path) {
  const zlb::common::MutexLock lock(mu_);
  std::ofstream out(path);  // BUG: opens, writes and closes under mu_
  out << rows_;
}

}  // namespace fx
