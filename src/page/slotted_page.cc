#include "page/slotted_page.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace shoremt::page {

void SlottedPage::Init(PageNum page_num, StoreId store, PageType type) {
  FormatPage(data_, page_num, store, type);
}

SlottedPage::Slot* SlottedPage::SlotAt(uint16_t index) {
  return reinterpret_cast<Slot*>(data_ + kPageSize) - (index + 1);
}

const SlottedPage::Slot* SlottedPage::SlotAt(uint16_t index) const {
  return reinterpret_cast<const Slot*>(data_ + kPageSize) - (index + 1);
}

uint16_t SlottedPage::LiveCount() const {
  uint16_t live = 0;
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    if (SlotAt(i)->offset != 0) ++live;
  }
  return live;
}

size_t SlottedPage::ContiguousFree() const {
  size_t slots_bottom = kPageSize - SlotCount() * sizeof(Slot);
  return slots_bottom - header()->free_begin;
}

size_t SlottedPage::FreeSpace() const {
  // Everything but the slot directory and the live records' reservations:
  // exactly what Compact() leaves contiguous.
  size_t reserved = SlotCount() * sizeof(Slot);
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    const Slot* s = SlotAt(i);
    if (s->offset != 0) reserved += s->capacity;
  }
  return kPagePayload - reserved;
}

bool SlottedPage::Fits(size_t size) const {
  // A tombstoned slot can be reused; otherwise a new slot entry is needed.
  bool has_tombstone = false;
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    if (SlotAt(i)->offset == 0) {
      has_tombstone = true;
      break;
    }
  }
  size_t need = size + (has_tombstone ? 0 : sizeof(Slot));
  return FreeSpace() >= need;
}

Result<uint16_t> SlottedPage::Insert(std::span<const uint8_t> payload) {
  if (payload.size() > MaxRecordSize()) {
    return Status::InvalidArgument("record exceeds page capacity");
  }
  // Prefer reusing a tombstoned slot so RecordIds stay dense.
  uint16_t slot = SlotCount();
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    if (SlotAt(i)->offset == 0) {
      slot = i;
      break;
    }
  }
  Status st = InsertAt(slot, payload);
  if (!st.ok()) return st;
  return slot;
}

Status SlottedPage::InsertAt(uint16_t slot, std::span<const uint8_t> payload) {
  PageHeader* h = header();
  bool new_slot = slot >= h->slot_count;
  if (!new_slot && SlotAt(slot)->offset != 0) {
    return Status::AlreadyExists("slot is live");
  }
  // Slots past slot_count materialize the gap as tombstones: replicated
  // replay applies page inserts in commit order, which can create slot
  // k+1 before slot k (the earlier-slot insert's transaction committed
  // later). Normal redo/undo stays contiguous and never takes the gap
  // path.
  size_t gap_slots = new_slot ? slot + 1 - h->slot_count : 0;
  size_t need = payload.size() + gap_slots * sizeof(Slot);
  if (ContiguousFree() < need) {
    // Fail before compacting: Update's rollback restores a record's old
    // offset, which stays valid only while nothing has moved.
    if (FreeSpace() < need) return Status::OutOfSpace("page full");
    Compact();  // Leaves FreeSpace() contiguous.
  }
  if (new_slot) {
    for (uint16_t i = h->slot_count; i < slot; ++i) {
      Slot* gap = SlotAt(i);
      *gap = Slot{};
    }
    h->slot_count = slot + 1;
  }
  Slot* s = SlotAt(slot);
  s->offset = static_cast<uint16_t>(h->free_begin);
  s->length = static_cast<uint16_t>(payload.size());
  s->capacity = s->length;
  if (!payload.empty()) {
    std::memcpy(data_ + h->free_begin, payload.data(), payload.size());
  }
  h->free_begin += static_cast<uint32_t>(payload.size());
  return Status::Ok();
}

Result<std::span<const uint8_t>> SlottedPage::Read(uint16_t slot) const {
  if (slot >= SlotCount()) return Status::NotFound("slot out of range");
  const Slot* s = SlotAt(slot);
  if (s->offset == 0) return Status::NotFound("slot deleted");
  return std::span<const uint8_t>(data_ + s->offset, s->length);
}

Status SlottedPage::Update(uint16_t slot, std::span<const uint8_t> payload) {
  if (slot >= SlotCount()) return Status::NotFound("slot out of range");
  Slot* s = SlotAt(slot);
  if (s->offset == 0) return Status::NotFound("slot deleted");
  if (payload.size() <= s->capacity) {
    // Fits the reservation: overwrite in place. A shrink keeps the whole
    // capacity, so undoing it grows the record back right here.
    std::memcpy(data_ + s->offset, payload.data(), payload.size());
    s->length = static_cast<uint16_t>(payload.size());
    return Status::Ok();
  }
  // Growing past the reservation: tombstone, then re-insert into the same
  // slot.
  Slot old = *s;
  s->offset = 0;
  Status st = InsertAt(slot, payload);
  if (!st.ok()) *s = old;  // Roll back the tombstone.
  return st;
}

Status SlottedPage::Restore(uint16_t slot, std::span<const uint8_t> before) {
  SHOREMT_ASSIGN_OR_RETURN(std::span<const uint8_t> current, Read(slot));
  bool shrinks = before.size() < current.size();
  SHOREMT_RETURN_NOT_OK(Update(slot, before));
  if (shrinks) {
    Slot* s = SlotAt(slot);
    PageHeader* h = header();
    if (static_cast<uint32_t>(s->offset) + s->capacity == h->free_begin) {
      h->free_begin = s->offset + s->length;  // Top of the heap: LIFO.
    }
    s->capacity = s->length;
  }
  return Status::Ok();
}

Status SlottedPage::Delete(uint16_t slot) {
  if (slot >= SlotCount()) return Status::NotFound("slot out of range");
  Slot* s = SlotAt(slot);
  if (s->offset == 0) return Status::NotFound("slot already deleted");
  PageHeader* h = header();
  if (static_cast<uint32_t>(s->offset) + s->capacity == h->free_begin) {
    // LIFO reclamation: the record sits at the top of the heap, so its
    // bytes return to the contiguous pool immediately. This makes undo's
    // delete-of-the-latest-insert a byte-exact reversal — without it, an
    // aborted transaction leaks its slot entries and dead bytes until
    // compaction, and rolling back a delete on a near-full page can fail
    // with OutOfSpace (an abort must never fail for lack of space it
    // itself consumed).
    h->free_begin = s->offset;
  }
  *s = Slot{};
  // Trailing tombstones release their directory entries too; InsertAt
  // re-materializes gaps on demand, so slot numbers handed out earlier
  // stay addressable.
  while (h->slot_count > 0 && SlotAt(h->slot_count - 1)->offset == 0) {
    --h->slot_count;
  }
  return Status::Ok();
}

bool SlottedPage::IsLive(uint16_t slot) const {
  return slot < SlotCount() && SlotAt(slot)->offset != 0;
}

void SlottedPage::Compact() {
  PageHeader* h = header();
  // Copy each live record's reserved region into a scratch heap in slot
  // order, then rewrite.
  std::vector<uint8_t> scratch;
  scratch.reserve(h->free_begin - sizeof(PageHeader));
  std::vector<uint16_t> placed(SlotCount());
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    const Slot* s = SlotAt(i);
    if (s->offset == 0) continue;
    placed[i] = static_cast<uint16_t>(sizeof(PageHeader) + scratch.size());
    scratch.insert(scratch.end(), data_ + s->offset,
                   data_ + s->offset + s->capacity);
  }
  if (!scratch.empty()) {
    std::memcpy(data_ + sizeof(PageHeader), scratch.data(), scratch.size());
  }
  for (uint16_t i = 0; i < SlotCount(); ++i) {
    Slot* s = SlotAt(i);
    if (s->offset != 0) {
      s->offset = placed[i];
    } else {
      *s = Slot{};
    }
  }
  h->free_begin = static_cast<uint32_t>(sizeof(PageHeader) + scratch.size());
}

}  // namespace shoremt::page
