#ifndef PERFBENCH_CAPTURE_H_
#define PERFBENCH_CAPTURE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "federation/silo.h"
#include "net/network.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span capture for the traced run. Every recording thread
/// appends to its own log (no shared lock on the hot path); Collect()
/// gathers them after the traced window, once the recording threads are
/// quiet. Recording happens only while capturing() is true, so the same
/// instrumented deployment also runs the untraced comparison window.
class SpanRecorder {
 public:
  struct ExecRecord {
    uint32_t thread = 0;
    int64_t start = 0;
    int64_t end = 0;
    uint32_t query = 0;  // index into the workload's query list
    int algorithm = 0;
  };
  struct CallRecord {
    uint32_t thread = 0;
    int silo = -1;
    int64_t start = 0;
    int64_t end = 0;
    bool ok = false;
    size_t response_bytes = 0;
    std::vector<uint8_t> request;
    /// A copy of the response for the codec replay; kept for the first
    /// kMaxResponseCopies calls only.
    std::vector<uint8_t> response;
  };
  struct HandleRecord {
    int silo = -1;
    int64_t start = 0;
    int64_t end = 0;
    uint64_t request_key = 0;
  };
  struct Collected {
    std::vector<ExecRecord> execs;
    std::vector<CallRecord> calls;
    std::vector<HandleRecord> handles;
  };

  static constexpr size_t kMaxResponseCopies = 4000;

  static SpanRecorder& Get();

  bool capturing() const { return capturing_.load(std::memory_order_acquire); }
  void set_capturing(bool on) {
    capturing_.store(on, std::memory_order_release);
  }

  void RecordExec(int64_t start, int64_t end, uint32_t query, int algorithm);
  void RecordCall(int silo, int64_t start, int64_t end,
                  const std::vector<uint8_t>& request,
                  const fra::Result<std::vector<uint8_t>>& response);
  void RecordHandle(int silo, int64_t start, int64_t end,
                    fra::ConstByteSpan request);

  /// Moves every thread's records out (the logs stay registered, empty).
  Collected Collect();

 private:
  struct ThreadLog {
    uint32_t thread = 0;
    Collected records;
  };
  ThreadLog& Local();

  std::atomic<bool> capturing_{false};
  std::atomic<size_t> response_copies_{0};
  std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Times a silo's HandleMessageView: the silo-side span. Everything else
/// is forwarded untouched.
class TimedEndpoint : public fra::SiloEndpoint {
 public:
  explicit TimedEndpoint(fra::Silo* silo) : silo_(silo) {}

  fra::Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    return HandleMessageView(fra::ConstByteSpan(request));
  }
  fra::Result<std::vector<uint8_t>> HandleMessageView(
      fra::ConstByteSpan request) override;

 private:
  fra::Silo* silo_;
};

/// A transport whose CallImpl is timed: the network span. `Base` is
/// InProcessNetwork or TcpNetwork.
template <class Base>
class TimedNetwork : public Base {
 public:
  using Base::Base;

 protected:
  fra::Result<std::vector<uint8_t>> CallImpl(
      int silo_id, const std::vector<uint8_t>& request) override {
    SpanRecorder& recorder = SpanRecorder::Get();
    if (!recorder.capturing()) return Base::CallImpl(silo_id, request);
    const int64_t start = NowNanos();
    fra::Result<std::vector<uint8_t>> response =
        Base::CallImpl(silo_id, request);
    recorder.RecordCall(silo_id, start, NowNanos(), request, response);
    return response;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_CAPTURE_H_
