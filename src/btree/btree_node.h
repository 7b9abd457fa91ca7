#ifndef SHOREMT_BTREE_BTREE_NODE_H_
#define SHOREMT_BTREE_BTREE_NODE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.h"
#include "page/page.h"

namespace shoremt::btree {

/// Fixed-size B+Tree entry. Keys are 64-bit (composite application keys
/// are packed into one word, as is common in research prototypes); values
/// are RecordIds in leaves and child PageNums in internal nodes.
struct BTreeEntry {
  uint64_t key;
  uint64_t value;
};

inline uint64_t PackRecordId(RecordId rid) {
  return (rid.page << 16) | rid.slot;
}
inline RecordId UnpackRecordId(uint64_t v) {
  return RecordId{v >> 16, static_cast<uint16_t>(v & 0xffff)};
}

/// Accessor over a B+Tree node page image. Layout after the PageHeader:
///   NodeHeader { count, level, leftmost_child }
///   BTreeEntry[count]  (sorted by key, dense)
/// Internal-node semantics: keys < entry[0].key descend to leftmost_child;
/// keys in [entry[i].key, entry[i+1].key) descend to entry[i].value.
/// Bytes past the live entries are kept zero, so a node's image is a
/// function of its content alone: forward processing, redo and media
/// repair of the same history produce the same bytes.
/// Not synchronized: callers hold the page latch.
class BTreeNode {
 public:
  struct NodeHeader {
    uint16_t count;
    uint16_t level;  ///< 0 = leaf.
    uint32_t pad;
    PageNum leftmost_child;
  };
  static_assert(sizeof(NodeHeader) == 16);

  static constexpr size_t kMaxEntries =
      (kPageSize - sizeof(page::PageHeader) - sizeof(NodeHeader)) /
      sizeof(BTreeEntry);

  explicit BTreeNode(void* data) : data_(static_cast<uint8_t*>(data)) {}

  /// Formats the image as an empty node.
  void Init(PageNum page_num, StoreId store, uint16_t level);

  bool IsLeaf() const { return node_header()->level == 0; }
  uint16_t level() const { return node_header()->level; }
  uint16_t count() const { return node_header()->count; }
  bool IsFull() const { return count() >= kMaxEntries; }
  PageNum leftmost_child() const { return node_header()->leftmost_child; }
  void set_leftmost_child(PageNum p) { node_header()->leftmost_child = p; }

  const BTreeEntry& entry(uint16_t i) const { return entries()[i]; }

  /// Index of the first entry with key >= `key` (== count() if none).
  uint16_t LowerBound(uint64_t key) const;
  /// True + index when `key` is present.
  bool FindKey(uint64_t key, uint16_t* index) const;
  /// Child page for `key` (internal nodes).
  PageNum ChildFor(uint64_t key) const;

  /// Inserts keeping sort order; fails (returns false) when full or key
  /// already present.
  bool InsertSorted(uint64_t key, uint64_t value);
  /// Removes `key`; false if absent.
  bool RemoveKey(uint64_t key);
  /// Replaces the value of an existing key; false if absent.
  bool UpdateValue(uint64_t key, uint64_t value);

  /// Serializes the node payload (NodeHeader + entries) — the redo blob
  /// for kBtreeSetContent records.
  std::vector<uint8_t> SerializeContent() const;
  /// Restores a node payload produced by SerializeContent.
  void RestoreContent(std::span<const uint8_t> blob);

  /// Moves entries [at, count) into `right` (freshly initialized, same
  /// level; requires at < count) and returns the separator: for a leaf,
  /// the first key of `right`; for an internal node, the first moved key,
  /// whose child becomes `right`'s leftmost pointer.
  uint64_t SplitInto(BTreeNode* right, uint16_t at);

 private:
  NodeHeader* node_header() {
    return reinterpret_cast<NodeHeader*>(data_ + sizeof(page::PageHeader));
  }
  const NodeHeader* node_header() const {
    return reinterpret_cast<const NodeHeader*>(data_ +
                                               sizeof(page::PageHeader));
  }
  BTreeEntry* entries() {
    return reinterpret_cast<BTreeEntry*>(data_ + sizeof(page::PageHeader) +
                                         sizeof(NodeHeader));
  }
  const BTreeEntry* entries() const {
    return reinterpret_cast<const BTreeEntry*>(
        data_ + sizeof(page::PageHeader) + sizeof(NodeHeader));
  }

  uint8_t* data_;
};

}  // namespace shoremt::btree

#endif  // SHOREMT_BTREE_BTREE_NODE_H_
