#include "repl/archive.h"

#include <span>
#include <string>

#include "log/log_record.h"

namespace shoremt::repl {

Result<std::unique_ptr<RestoredInstance>> RestoreToLsn(
    const std::string& archive_dir, const log::LogStorage* live, Lsn target,
    sm::StorageOptions opts) {
  SHOREMT_ASSIGN_OR_RETURN(LogArchive archive, LogArchive::Open(archive_dir));
  std::vector<uint8_t> stream;
  SHOREMT_RETURN_NOT_OK(archive.ReadHistory(live, &stream));
  if (stream.empty()) {
    return Status::InvalidArgument("nothing to restore: empty archive + log");
  }

  // Cut after the last record whose END LSN is <= target.
  uint64_t keep = 0;
  SHOREMT_RETURN_NOT_OK(
      log::WalkLogRecords(stream, 0,
                          [&](log::LogRecord&, Lsn end) {
                            if (end <= target) keep = end.value - 1;
                            return Status::Ok();
                          })
          .status());
  if (keep == 0) {
    return Status::InvalidArgument("restore target " +
                                   std::to_string(target.value) +
                                   " precedes the first archived record");
  }

  auto inst = std::make_unique<RestoredInstance>();
  size_t segment_bytes = archive.empty()
                             ? (live != nullptr ? live->segment_bytes() : 0)
                             : archive.segments().front().capacity;
  inst->log = std::make_unique<log::LogStorage>(/*append_latency_ns=*/0,
                                                segment_bytes);
  SHOREMT_RETURN_NOT_OK(
      inst->log->Append(std::span<const uint8_t>(stream.data(), keep)));

  inst->volume = std::make_unique<io::MemVolume>();
  opts.open_mode = sm::OpenMode::kRestore;
  // Never archive from (or into) the source archive again.
  opts.log.archive_dir.clear();
  SHOREMT_ASSIGN_OR_RETURN(
      inst->sm,
      sm::StorageManager::Open(opts, inst->volume.get(), inst->log.get()));
  return inst;
}

}  // namespace shoremt::repl
