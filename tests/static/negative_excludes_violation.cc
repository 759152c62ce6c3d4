// MUST NOT COMPILE under -Werror=thread-safety-analysis: calls a
// FEDDA_EXCLUDES method while holding the excluded mutex — the blocking
// call under its own object's lock that this annotation exists to prevent.

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace {

class Worker {
 public:
  void Wait() FEDDA_EXCLUDES(mu_) {}

  void Broken() {
    fedda::core::MutexLock lock(&mu_);
    Wait();  // BAD: Wait() must not run under mu_.
  }

 private:
  fedda::core::Mutex mu_;
};

}  // namespace

int main() {
  Worker worker;
  worker.Broken();
  return 0;
}
