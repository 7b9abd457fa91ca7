#include "log/log_manager.h"

#include <algorithm>
#include <cstring>

#include "log/flush_pipeline.h"

namespace shoremt::log {

LogManager::LogManager(LogStorage* storage, LogOptions options)
    : storage_(storage), options_(options) {
  if (options_.segment_bytes > 0) {
    storage_->set_segment_bytes(options_.segment_bytes);
  }
  if (!options_.archive_dir.empty()) {
    storage_->set_archive_dir(options_.archive_dir);
    storage_->set_archive_direct_io(options_.direct_io);
  }
  // Assigned in the body so stats_ is fully constructed before the buffer
  // (which publishes consolidation counters into it) exists; same for the
  // storage's segment-counter mirror.
  storage_->AttachStats(&stats_);
  buffer_ = MakeLogBuffer(options_.buffer_kind, storage_,
                          options_.buffer_capacity, &stats_,
                          options_.carray_force_consolidation);
  pipeline_ = std::make_unique<FlushPipeline>(
      buffer_.get(), &stats_,
      options_.flush_daemon ? options_.flush_interval_us : 0,
      options_.durable_callback_threads, options_.durable_callback_queue);
}

LogManager::~LogManager() {
  // The pipeline (whose drain can allocate segments) must stop before the
  // stats mirror detaches; the storage outlives this manager.
  pipeline_.reset();
  storage_->AttachStats(nullptr);
}

size_t LogManager::Recycle(Lsn below) {
  if (below.IsNull()) return 0;
  Lsn durable = buffer_->durable_lsn();
  if (below > durable) below = durable;
  return storage_->Recycle(below);
}

void LogManager::SetPressureHook(std::function<void()> hook) {
  if (!hook) {
    pipeline_->SetPostBatchHook(nullptr);
    return;
  }
  pipeline_->SetPostBatchHook([this, hook = std::move(hook)] {
    if (SegmentPressure()) hook();
  });
}

Result<Appended> LogManager::Append(const LogRecord& rec) {
  thread_local std::vector<uint8_t> scratch;
  SerializeLogRecord(rec, &scratch);
  stats_.records.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes.fetch_add(scratch.size(), std::memory_order_relaxed);
  return buffer_->Append(scratch, /*compensation=*/false);
}

Result<Appended> LogManager::AppendClr(const LogRecord& rec) {
  thread_local std::vector<uint8_t> scratch;
  SerializeLogRecord(rec, &scratch);
  stats_.records.fetch_add(1, std::memory_order_relaxed);
  stats_.compensations.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes.fetch_add(scratch.size(), std::memory_order_relaxed);
  return buffer_->Append(scratch, /*compensation=*/true);
}

Status LogManager::FlushTo(Lsn upto) {
  if (buffer_->durable_lsn() >= upto) return Status::Ok();
  stats_.flush_waits.fetch_add(1, std::memory_order_relaxed);
  Status st = buffer_->FlushTo(upto);
  // This thread advanced durability behind the daemon's back: waiters
  // parked in the pipeline may now be satisfied.
  if (st.ok()) pipeline_->NotifyDurableAdvanced();
  return st;
}

Status LogManager::FlushAll() {
  Status st = buffer_->FlushTo(buffer_->next_lsn());
  if (st.ok()) pipeline_->NotifyDurableAdvanced();
  return st;
}

void LogManager::SubmitFlush(Lsn upto) { pipeline_->Submit(upto); }

Status LogManager::WaitDurable(Lsn upto) { return pipeline_->Wait(upto); }

void LogManager::OnDurable(Lsn upto, std::function<void(Status)> fn) {
  pipeline_->OnDurable(upto, std::move(fn));
}

bool LogManager::IsDurable(Lsn upto) const {
  return buffer_->durable_lsn() >= upto;
}

Status LogManager::pipeline_error() const { return pipeline_->error(); }

void LogManager::Abandon() { pipeline_->Abandon(); }

Result<LogRecord> LogManager::ReadRecord(Lsn lsn) const {
  if (lsn.IsNull()) return Status::InvalidArgument("null LSN");
  uint64_t offset = lsn.value - 1;
  uint64_t durable = storage_->size();
  if (offset + 4 > durable) {
    return Status::Corruption("log read beyond durable end");
  }
  // One storage read covers the whole record in the common case; the
  // length prefix is validated against the record format and the durable
  // size before it is trusted, so a torn or garbage prefix surfaces as
  // Corruption instead of a bogus (or gigantic) read.
  constexpr size_t kReadAhead = 4096;
  std::vector<uint8_t> bytes;
  SHOREMT_RETURN_NOT_OK(storage_->Read(
      offset, static_cast<size_t>(std::min<uint64_t>(durable - offset,
                                                     kReadAhead)),
      &bytes));
  uint32_t total_len;
  std::memcpy(&total_len, bytes.data(), 4);
  if (total_len < kLogRecordHeaderSize + kLogRecordCrcSize ||
      offset + total_len > durable) {
    return Status::Corruption("bad log record length prefix");
  }
  if (total_len > bytes.size()) {
    // Rare oversized record: one more exact read.
    SHOREMT_RETURN_NOT_OK(storage_->Read(offset, total_len, &bytes));
  }
  LogRecord rec;
  size_t consumed;
  Status st = DeserializeLogRecord(bytes, &rec, &consumed);
  if (!st.ok()) {
    return Status::Corruption(st.message() + " at LSN " +
                              std::to_string(lsn.value));
  }
  rec.lsn = lsn;
  return rec;
}

Status LogManager::Scan(const LogRecordVisitor& fn, Lsn from) const {
  // Clamp to the reclamation horizon: bytes below it may be recycled, and
  // the horizon is always a record boundary (it is an LSN a checkpoint
  // computed), so the scan stays aligned.
  uint64_t offset = from.IsNull() ? 0 : from.value - 1;
  offset = std::max(offset, storage_->reclaim_horizon().value - 1);
  std::vector<uint8_t> live;
  SHOREMT_RETURN_NOT_OK(storage_->ReadFrom(offset, &live));
  return WalkLogRecords(live, offset, fn).status();
}

}  // namespace shoremt::log
