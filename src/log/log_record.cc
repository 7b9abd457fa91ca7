#include "log/log_record.h"

#include <cstring>
#include <string>

#include "common/crc32c.h"

namespace shoremt::log {

namespace {

// Fixed header layout (little-endian / host order; the log is not a
// portable artifact, matching the original system). Layout documented at
// kLogRecordHeaderSize in the header.
constexpr size_t kHeaderSize = kLogRecordHeaderSize;

template <typename T>
void Put(std::vector<uint8_t>* out, T value) {
  size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

template <typename T>
bool Get(std::span<const uint8_t> data, size_t* off, T* value) {
  if (*off + sizeof(T) > data.size()) return false;
  std::memcpy(value, data.data() + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

}  // namespace

size_t LogRecord::SerializedSize() const {
  return kHeaderSize + before.size() + after.size() + kLogRecordCrcSize;
}

void SerializeLogRecord(const LogRecord& rec, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(rec.SerializedSize());
  Put<uint32_t>(out, static_cast<uint32_t>(rec.SerializedSize()));
  Put<uint8_t>(out, static_cast<uint8_t>(rec.type));
  Put<uint8_t>(out, rec.page_type);
  Put<uint16_t>(out, rec.slot);
  Put<uint64_t>(out, rec.txn);
  Put<uint64_t>(out, rec.prev_lsn.value);
  Put<uint64_t>(out, rec.undo_next.value);
  Put<uint64_t>(out, rec.page);
  Put<uint32_t>(out, rec.store);
  Put<uint32_t>(out, static_cast<uint32_t>(rec.before.size()));
  Put<uint32_t>(out, static_cast<uint32_t>(rec.after.size()));
  out->insert(out->end(), rec.before.begin(), rec.before.end());
  out->insert(out->end(), rec.after.begin(), rec.after.end());
  Put<uint32_t>(out, Crc32c(out->data(), out->size()));
}

Status DeserializeLogRecord(std::span<const uint8_t> data, LogRecord* rec,
                            size_t* consumed) {
  size_t off = 0;
  uint32_t total_len;
  uint8_t type;
  uint32_t before_len;
  uint32_t after_len;
  uint64_t txn, prev, undo, page;
  uint32_t store;
  if (!Get(data, &off, &total_len) || !Get(data, &off, &type) ||
      !Get(data, &off, &rec->page_type) || !Get(data, &off, &rec->slot) ||
      !Get(data, &off, &txn) || !Get(data, &off, &prev) ||
      !Get(data, &off, &undo) || !Get(data, &off, &page) ||
      !Get(data, &off, &store) || !Get(data, &off, &before_len) ||
      !Get(data, &off, &after_len)) {
    return Status::Corruption("truncated log record header");
  }
  if (total_len !=
          kHeaderSize + before_len + after_len + kLogRecordCrcSize ||
      total_len > data.size()) {
    return Status::Corruption("log record length mismatch");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + total_len - kLogRecordCrcSize, 4);
  uint32_t computed = Crc32c(data.data(), total_len - kLogRecordCrcSize);
  if (stored_crc != computed) {
    return Status::Corruption("log record CRC mismatch");
  }
  rec->type = static_cast<LogRecordType>(type);
  rec->txn = txn;
  rec->prev_lsn = Lsn{prev};
  rec->undo_next = Lsn{undo};
  rec->page = page;
  rec->store = store;
  rec->before.assign(data.begin() + off, data.begin() + off + before_len);
  off += before_len;
  rec->after.assign(data.begin() + off, data.begin() + off + after_len);
  *consumed = total_len;
  return Status::Ok();
}

Result<size_t> WalkLogRecords(std::span<const uint8_t> bytes, uint64_t base,
                              const LogRecordVisitor& fn) {
  LogRecord rec;
  size_t pos = 0;
  while (pos + 4 <= bytes.size()) {
    uint32_t total_len;
    std::memcpy(&total_len, bytes.data() + pos, 4);
    uint64_t lsn = base + pos + 1;
    if (total_len < kHeaderSize + kLogRecordCrcSize) {
      return Status::Corruption("bad log record length prefix at LSN " +
                                std::to_string(lsn));
    }
    if (total_len > bytes.size() - pos) break;  // Torn or incomplete tail.
    size_t consumed;
    Status st = DeserializeLogRecord(bytes.subspan(pos), &rec, &consumed);
    if (!st.ok()) {
      return Status::Corruption(st.message() + " at LSN " +
                                std::to_string(lsn));
    }
    rec.lsn = Lsn{lsn};
    SHOREMT_RETURN_NOT_OK(fn(rec, Lsn{lsn + consumed}));
    pos += consumed;
  }
  return pos;
}

void SerializeCheckpoint(const CheckpointBody& body,
                         std::vector<uint8_t>* out) {
  out->clear();
  Put<uint64_t>(out, body.redo_lsn.value);
  Put<uint32_t>(out, static_cast<uint32_t>(body.active_txns.size()));
  for (const CheckpointTxn& t : body.active_txns) {
    Put<uint64_t>(out, t.id);
    Put<uint64_t>(out, t.last_lsn.value);
    Put<uint64_t>(out, t.first_lsn.value);
  }
  Put<uint32_t>(out, static_cast<uint32_t>(body.tables.size()));
  for (const std::vector<uint8_t>& t : body.tables) {
    Put<uint32_t>(out, static_cast<uint32_t>(t.size()));
    out->insert(out->end(), t.begin(), t.end());
  }
  Put<uint32_t>(out, static_cast<uint32_t>(body.stores.size()));
  for (const auto& [store, pages] : body.stores) {
    Put<uint32_t>(out, store);
    Put<uint32_t>(out, static_cast<uint32_t>(pages.size()));
    for (PageNum p : pages) Put<uint64_t>(out, p);
  }
}

Status DeserializeCheckpoint(std::span<const uint8_t> data,
                             CheckpointBody* body) {
  size_t off = 0;
  uint64_t redo;
  uint32_t count;
  if (!Get(data, &off, &redo) || !Get(data, &off, &count)) {
    return Status::Corruption("truncated checkpoint body");
  }
  body->redo_lsn = Lsn{redo};
  body->active_txns.clear();
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t txn, last, first;
    if (!Get(data, &off, &txn) || !Get(data, &off, &last) ||
        !Get(data, &off, &first)) {
      return Status::Corruption("truncated checkpoint txn table");
    }
    body->active_txns.push_back({txn, Lsn{last}, Lsn{first}});
  }
  uint32_t tables;
  if (!Get(data, &off, &tables)) {
    return Status::Corruption("truncated checkpoint catalog");
  }
  body->tables.clear();
  for (uint32_t i = 0; i < tables; ++i) {
    uint32_t len;
    if (!Get(data, &off, &len) || off + len > data.size()) {
      return Status::Corruption("truncated checkpoint catalog entry");
    }
    body->tables.emplace_back(data.begin() + off, data.begin() + off + len);
    off += len;
  }
  uint32_t stores;
  if (!Get(data, &off, &stores)) {
    return Status::Corruption("truncated checkpoint space map");
  }
  body->stores.clear();
  for (uint32_t i = 0; i < stores; ++i) {
    uint32_t store, pages;
    if (!Get(data, &off, &store) || !Get(data, &off, &pages)) {
      return Status::Corruption("truncated checkpoint store entry");
    }
    std::vector<PageNum> list(pages);
    for (uint32_t p = 0; p < pages; ++p) {
      uint64_t page;
      if (!Get(data, &off, &page)) {
        return Status::Corruption("truncated checkpoint page list");
      }
      list[p] = page;
    }
    body->stores.emplace_back(store, std::move(list));
  }
  return Status::Ok();
}

}  // namespace shoremt::log
