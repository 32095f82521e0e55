// zlb_analyze fixture: MUST keep failing the lock-blocking checker.
// Blocking file I/O spelled directly inside the held lock scope — every
// thread contending on that lock now waits on disk latency.
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

class Journal {
 public:
  void append(const char* line) {
    const MutexLock lock(mu_);
    std::FILE* f = fopen("journal.log", "a");
    if (f != nullptr) {
      fwrite(line, 1, 4, f);
      fclose(f);
    }
  }

 private:
  Mutex mu_;
};

}  // namespace fixture
