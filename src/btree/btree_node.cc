#include "btree/btree_node.h"

#include <algorithm>

namespace shoremt::btree {

void BTreeNode::Init(PageNum page_num, StoreId store, uint16_t level) {
  page::FormatPage(data_, page_num, store,
                   level == 0 ? page::PageType::kBTreeLeaf
                              : page::PageType::kBTreeInternal);
  NodeHeader* h = node_header();
  h->count = 0;
  h->level = level;
  h->pad = 0;
  h->leftmost_child = kInvalidPageNum;
}

uint16_t BTreeNode::LowerBound(uint64_t key) const {
  const BTreeEntry* begin = entries();
  const BTreeEntry* end = begin + count();
  const BTreeEntry* it = std::lower_bound(
      begin, end, key,
      [](const BTreeEntry& e, uint64_t k) { return e.key < k; });
  return static_cast<uint16_t>(it - begin);
}

bool BTreeNode::FindKey(uint64_t key, uint16_t* index) const {
  uint16_t i = LowerBound(key);
  if (i < count() && entry(i).key == key) {
    *index = i;
    return true;
  }
  return false;
}

PageNum BTreeNode::ChildFor(uint64_t key) const {
  uint16_t i = LowerBound(key);
  // entry(i).key >= key: if equal, descend into entry(i); else entry(i-1).
  if (i < count() && entry(i).key == key) return entry(i).value;
  if (i == 0) return leftmost_child();
  return entry(i - 1).value;
}

bool BTreeNode::InsertSorted(uint64_t key, uint64_t value) {
  if (IsFull()) return false;
  uint16_t i = LowerBound(key);
  if (i < count() && entry(i).key == key) return false;  // Duplicate.
  BTreeEntry* e = entries();
  std::memmove(e + i + 1, e + i, (count() - i) * sizeof(BTreeEntry));
  e[i] = {key, value};
  ++node_header()->count;
  return true;
}

bool BTreeNode::RemoveKey(uint64_t key) {
  uint16_t i;
  if (!FindKey(key, &i)) return false;
  BTreeEntry* e = entries();
  std::memmove(e + i, e + i + 1, (count() - i - 1) * sizeof(BTreeEntry));
  --node_header()->count;
  std::memset(e + count(), 0, sizeof(BTreeEntry));
  return true;
}

bool BTreeNode::UpdateValue(uint64_t key, uint64_t value) {
  uint16_t i;
  if (!FindKey(key, &i)) return false;
  entries()[i].value = value;
  return true;
}

std::vector<uint8_t> BTreeNode::SerializeContent() const {
  // Leaf-chain links live in the PageHeader but are part of the node's
  // logical content (redo of a split must restore them), so the blob is
  // {next_page, prev_page, NodeHeader, entries}.
  size_t len = sizeof(NodeHeader) + count() * sizeof(BTreeEntry);
  const uint8_t* start = data_ + sizeof(page::PageHeader);
  std::vector<uint8_t> out(2 * sizeof(PageNum) + len);
  const page::PageHeader* ph = page::HeaderOf(data_);
  std::memcpy(out.data(), &ph->next_page, sizeof(PageNum));
  std::memcpy(out.data() + sizeof(PageNum), &ph->prev_page, sizeof(PageNum));
  std::memcpy(out.data() + 2 * sizeof(PageNum), start, len);
  return out;
}

void BTreeNode::RestoreContent(std::span<const uint8_t> blob) {
  page::PageHeader* ph = page::HeaderOf(data_);
  std::memcpy(&ph->next_page, blob.data(), sizeof(PageNum));
  std::memcpy(&ph->prev_page, blob.data() + sizeof(PageNum), sizeof(PageNum));
  size_t len = blob.size() - 2 * sizeof(PageNum);
  std::memcpy(data_ + sizeof(page::PageHeader),
              blob.data() + 2 * sizeof(PageNum), len);
  std::memset(data_ + sizeof(page::PageHeader) + len, 0,
              kPageSize - sizeof(page::PageHeader) - len);
  // The page type follows the level: a root split turns a leaf root
  // internal, and redo of that split must too.
  ph->type = level() == 0 ? page::PageType::kBTreeLeaf
                          : page::PageType::kBTreeInternal;
}

uint64_t BTreeNode::SplitInto(BTreeNode* right, uint16_t at) {
  uint16_t move = count() - at;
  NodeHeader* rh = right->node_header();
  rh->level = node_header()->level;
  std::memcpy(right->entries(), entries() + at, move * sizeof(BTreeEntry));
  rh->count = move;
  node_header()->count = at;
  std::memset(entries() + at, 0, move * sizeof(BTreeEntry));
  if (level() > 0) {
    // Internal split: the first moved entry's key becomes the separator;
    // its child becomes the right node's leftmost pointer.
    uint64_t sep = right->entry(0).key;
    rh->leftmost_child = right->entry(0).value;
    std::memmove(right->entries(), right->entries() + 1,
                 (move - 1) * sizeof(BTreeEntry));
    --rh->count;
    std::memset(right->entries() + rh->count, 0, sizeof(BTreeEntry));
    return sep;
  }
  return right->entry(0).key;
}

}  // namespace shoremt::btree
