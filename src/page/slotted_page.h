#ifndef SHOREMT_PAGE_SLOTTED_PAGE_H_
#define SHOREMT_PAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <span>

#include "common/status.h"
#include "common/types.h"
#include "page/page.h"

namespace shoremt::page {

/// Slotted-page view over a raw page image. Records grow upward from the
/// header; the slot directory grows downward from the page end. Deleting a
/// record tombstones its slot (slot numbers are stable so RecordIds stay
/// valid); space is reclaimed by compaction when an insert needs it.
///
/// Each live record keeps a capacity next to its length: an update that
/// shrinks a record leaves its bytes reserved (compaction moves them with
/// the record), so undoing the update grows it back in place and an abort
/// can never fail for lack of space.
///
/// Not internally synchronized: callers hold the page latch.
class SlottedPage {
 public:
  /// Wraps (does not initialize) the given page image.
  explicit SlottedPage(void* data) : data_(static_cast<uint8_t*>(data)) {}

  /// Formats the image as an empty slotted page.
  void Init(PageNum page_num, StoreId store, PageType type);

  PageHeader* header() { return HeaderOf(data_); }
  const PageHeader* header() const { return HeaderOf(data_); }

  /// Number of slots (including tombstones).
  uint16_t SlotCount() const { return header()->slot_count; }
  /// Number of live (non-tombstoned) records.
  uint16_t LiveCount() const;

  /// Bytes available for a new record (including its slot entry),
  /// assuming compaction.
  size_t FreeSpace() const;
  /// Whether a record of `size` bytes fits (possibly after compaction).
  bool Fits(size_t size) const;

  /// Inserts a record, returning its slot. Reuses tombstoned slots.
  Result<uint16_t> Insert(std::span<const uint8_t> payload);
  /// Inserts into a specific slot (used by recovery redo and replicated
  /// replay). The slot must be free (beyond slot_count or tombstoned); a
  /// gap up to `slot` is materialized as tombstones (commit-order replay
  /// can create slot k+1 before slot k).
  Status InsertAt(uint16_t slot, std::span<const uint8_t> payload);
  /// Reads the record in `slot`.
  Result<std::span<const uint8_t>> Read(uint16_t slot) const;
  /// Replaces the record in `slot`; may move it within the page. A
  /// shrinking record keeps its capacity.
  Status Update(uint16_t slot, std::span<const uint8_t> payload);
  /// Rolls `slot` back to its `before` image (undo, and redo of the
  /// compensation record). Like Update, but rolling back a growth also
  /// gives up the capacity the growth took: the transaction's earlier
  /// changes to the page may need those bytes to roll back in turn (a
  /// deleted row coming back, say).
  Status Restore(uint16_t slot, std::span<const uint8_t> before);
  /// Tombstones `slot`.
  Status Delete(uint16_t slot);
  /// True if `slot` holds a live record.
  bool IsLive(uint16_t slot) const;

  /// Defragments the record heap in place; slot numbers are preserved.
  void Compact();

  /// Maximum record payload a completely empty page can hold.
  static constexpr size_t MaxRecordSize() {
    return kPagePayload - sizeof(Slot);
  }

 private:
  /// Slot directory entry, stored from the end of the page downward.
  struct Slot {
    uint16_t offset;    ///< Byte offset of the record; 0 = tombstone.
    uint16_t length;    ///< Record length in bytes.
    uint16_t capacity;  ///< Bytes reserved at `offset` (>= length).
  };

  Slot* SlotAt(uint16_t index);
  const Slot* SlotAt(uint16_t index) const;
  /// Contiguous free bytes between the record heap top and the slot
  /// directory bottom (without compaction).
  size_t ContiguousFree() const;

  uint8_t* data_;
};

}  // namespace shoremt::page

#endif  // SHOREMT_PAGE_SLOTTED_PAGE_H_
