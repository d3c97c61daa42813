#include "capture.h"

#include "spans.h"

namespace perfbench {

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

SpanRecorder::ThreadLog& SpanRecorder::Local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<uint32_t>(logs_.size());
    log->records.calls.reserve(1 << 14);
  }
  return *log;
}

void SpanRecorder::RecordExec(int64_t start, int64_t end, uint32_t query,
                              int algorithm) {
  ThreadLog& log = Local();
  log.records.execs.push_back({log.thread, start, end, query, algorithm});
}

void SpanRecorder::RecordCall(
    int silo, int64_t start, int64_t end, const std::vector<uint8_t>& request,
    const fra::Result<std::vector<uint8_t>>& response) {
  ThreadLog& log = Local();
  CallRecord record;
  record.thread = log.thread;
  record.silo = silo;
  record.start = start;
  record.end = end;
  record.ok = response.ok();
  record.request = request;
  if (response.ok()) {
    record.response_bytes = response->size();
    if (response_copies_.fetch_add(1, std::memory_order_relaxed) <
        kMaxResponseCopies) {
      record.response = *response;
    }
  }
  log.records.calls.push_back(std::move(record));
}

void SpanRecorder::RecordHandle(int silo, int64_t start, int64_t end,
                                fra::ConstByteSpan request) {
  Local().records.handles.push_back(
      {silo, start, end, HashBytes(request.data(), request.size())});
}

SpanRecorder::Collected SpanRecorder::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  Collected out;
  for (const auto& log : logs_) {
    Collected& records = log->records;
    out.execs.insert(out.execs.end(), records.execs.begin(),
                     records.execs.end());
    for (CallRecord& call : records.calls) out.calls.push_back(std::move(call));
    out.handles.insert(out.handles.end(), records.handles.begin(),
                       records.handles.end());
    records = Collected();
  }
  response_copies_.store(0);
  return out;
}

fra::Result<std::vector<uint8_t>> TimedEndpoint::HandleMessageView(
    fra::ConstByteSpan request) {
  SpanRecorder& recorder = SpanRecorder::Get();
  if (!recorder.capturing()) return silo_->HandleMessageView(request);
  const int64_t start = NowNanos();
  fra::Result<std::vector<uint8_t>> response =
      silo_->HandleMessageView(request);
  recorder.RecordHandle(silo_->id(), start, NowNanos(), request);
  return response;
}

}  // namespace perfbench
