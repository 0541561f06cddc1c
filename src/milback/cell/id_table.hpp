// Interned node identifiers for the cell layer.
//
// A `std::string id` per node, copied into every `CellNodeReport`, is a
// heap-owned string per node at city scale — pure overhead, since ids are
// immutable once a node exists. This table interns each distinct id string
// exactly once, process-wide, and hands out a 4-byte `NodeId` handle;
// reports and the SoA node store carry the handle and resolve the text
// lazily through a `std::string_view` into the table's stable storage.
//
// The table is append-only (ids are never removed — a retired node's id
// stays valid in reports that outlive the engine) and guarded by a
// shared_mutex: interning takes the exclusive lock, resolution takes the
// shared lock. Storage is a deque so views handed out earlier are never
// invalidated by later interning.
#pragma once

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace milback::cell {

class IdTable;

/// Compact handle to an interned id string. Value type: 4 bytes, trivially
/// copyable, equality-comparable (same table slot <=> same text). Default
/// constructed handles are invalid until assigned from IdTable::intern().
class NodeId {
 public:
  NodeId() = default;

  /// Resolves the interned text. Valid for the process lifetime.
  std::string_view view() const;

  /// True once the handle names an interned id.
  bool valid() const noexcept { return index_ != kInvalid; }

  /// Raw table slot (stable, dense in intern order); kInvalid when unset.
  std::uint32_t index() const noexcept { return index_; }

  friend bool operator==(NodeId a, NodeId b) noexcept { return a.index_ == b.index_; }
  friend bool operator!=(NodeId a, NodeId b) noexcept { return a.index_ != b.index_; }

 private:
  friend class IdTable;
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  explicit NodeId(std::uint32_t index) : index_(index) {}
  std::uint32_t index_ = kInvalid;
};

/// Process-wide append-only intern table for node id strings.
class IdTable {
 public:
  /// The shared table every engine interns into.
  static IdTable& global();

  /// Interns `id` (idempotent: the same text always maps to the same
  /// handle) and returns its compact handle.
  NodeId intern(std::string_view id);

  /// Resolves a handle produced by intern(). The view stays valid for the
  /// table's lifetime (storage is append-only).
  std::string_view view(NodeId id) const;

  /// Number of distinct ids interned so far.
  std::size_t size() const;

 private:
  mutable std::shared_mutex mutex_;
  std::deque<std::string> strings_;                       // stable storage
  std::unordered_map<std::string_view, std::uint32_t> index_;  // text -> slot
};

/// Streams the interned text (so gtest failure messages and example tables
/// print ids, not raw slot numbers).
std::ostream& operator<<(std::ostream& os, NodeId id);

}  // namespace milback::cell
