// zlb_analyze fixture: MUST keep failing the lock-blocking checker.
// A positional read (pread) is file I/O like read(): serving a chunk
// from an image file while the ledger lock is held stalls every thread
// that contends on it.
#include <unistd.h>

#include <cstdint>

#include "common/mutex.hpp"

namespace fx {

class ChunkServer {
 public:
  bool serve(std::uint8_t* out, std::size_t len, off_t at);

 private:
  zlb::common::Mutex ledger_mu_;
  int fd_ = -1;
};

bool ChunkServer::serve(std::uint8_t* out, std::size_t len, off_t at) {
  const zlb::common::MutexLock lock(ledger_mu_);
  // BUG: blocking file I/O under the lock.
  return ::pread(fd_, out, len, at) == static_cast<ssize_t>(len);
}

}  // namespace fx
