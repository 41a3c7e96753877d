//===- history/key_refs.h - Per-key operation counts -------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How many operations of a history (or of a Monitor's live window) touch
/// each key; the number of keys with a nonzero count is
/// History::numKeys(). Every ingested operation adds one, and windowed
/// eviction releases what it drops, so the table is a flat one
/// (support/flat_table.h). Keys span all of uint64_t, so a slot is empty
/// when its count is zero rather than when its key is a sentinel.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_HISTORY_KEY_REFS_H
#define AWDIT_HISTORY_KEY_REFS_H

#include "history/types.h"
#include "support/assert.h"
#include "support/flat_table.h"

namespace awdit {

class KeyRefCounts {
public:
  /// Counts one more operation on \p K.
  void add(Key K) {
    auto [S, Claimed] = Table.insert(K);
    if (Claimed)
      S->K = K;
    ++S->Count;
  }

  /// Drops one operation on \p K, which must have been added; the key
  /// leaves once its count reaches zero.
  void release(Key K) {
    Slot *S = Table.find(K);
    AWDIT_ASSERT(S, "KeyRefCounts::release: key was never added");
    if (--S->Count == 0)
      Table.erase(S);
  }

  /// Number of distinct keys with a nonzero count.
  size_t size() const { return Table.size(); }

private:
  struct Slot {
    Key K = 0;
    uint32_t Count = 0;
    bool empty() const { return Count == 0; }
    Key key() const { return K; }
    static uint64_t hash(Key K) { return mixHash64(K); }
  };
  FlatTable<Slot> Table;
};

} // namespace awdit

#endif // AWDIT_HISTORY_KEY_REFS_H
