// A value built once by its first requester and awaited by every other
// requester of the same key: the per-key slot behind MeshSolveCache and
// SolveMemo. The owner builds with no shared lock held and publishes the
// value or the exception that stopped it; wait() blocks until then and
// rethrows a published exception.
#pragma once

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

namespace vpd {

template <class T>
class OnceSlot {
 public:
  void finish(std::shared_ptr<const T> value, std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      value_ = std::move(value);
      error_ = std::move(error);
      done_ = true;
    }
    ready_.notify_all();
  }

  std::shared_ptr<const T> wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return done_; });
    if (error_) std::rethrow_exception(error_);
    return value_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  bool done_{false};
  std::shared_ptr<const T> value_;
  std::exception_ptr error_;
};

}  // namespace vpd
