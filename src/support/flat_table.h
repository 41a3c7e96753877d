//===- support/flat_table.h - Open-addressing slot table ---------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-addressing core behind the ingest path's per-operation hash
/// tables: the (key, value) -> write-site index of wr resolution
/// (history/wr_resolver.h) and the per-key operation counts of a history
/// or a Monitor window (history/key_refs.h). Loading a history probes each
/// of them once or twice per operation, and with std::unordered_map the
/// node allocation and pointer chasing of those probes were the largest
/// cost of the whole load. Here the slots live inline in one power-of-two
/// array: linear probing keeps a lookup within a cache line or two, and
/// backward-shift erase keeps probe runs gap-free without tombstones, so a
/// windowed monitor that erases as much as it records never degrades.
///
/// Unlike PackedEdgeMap (support/packed_edge_map.h), whose packed edge keys
/// leave ~0ULL free as the empty sentinel, these keys span every 64-bit
/// value, so the slot type itself says what "empty" means — a write site
/// with no transaction, a key count of zero. \p Slot must provide:
///
///   - a default constructor producing an empty slot;
///   - `bool empty() const`;
///   - `KeyType key() const` (the key of a live slot, equality-comparable);
///   - `static uint64_t hash(const KeyType &)`.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_FLAT_TABLE_H
#define AWDIT_SUPPORT_FLAT_TABLE_H

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace awdit {

/// Linear probing over a power-of-two array of \p Slot, max load 2/3 after
/// an insert, backward-shift erase. Pointers to slots stay valid until the
/// next insert or erase.
template <typename Slot> class FlatTable {
public:
  using KeyType = std::decay_t<decltype(std::declval<const Slot &>().key())>;

  FlatTable() : Table(MinCapacity) {}

  size_t size() const { return Count; }
  size_t capacity() const { return Table.size(); }

  /// The live slot holding \p K, or null.
  Slot *find(const KeyType &K) {
    Slot &S = Table[probe(K)];
    return S.empty() ? nullptr : &S;
  }
  const Slot *find(const KeyType &K) const {
    const Slot &S = Table[probe(K)];
    return S.empty() ? nullptr : &S;
  }

  /// Finds or claims the slot for \p K; the flag is true when it was
  /// claimed. A claimed slot already counts as live: the caller must make
  /// it non-empty (store \p K in it) before the next call on the table.
  std::pair<Slot *, bool> insert(const KeyType &K) {
    if ((Count + 1) * 3 > Table.size() * 2)
      rehash(Table.size() * 2);
    Slot &S = Table[probe(K)];
    if (!S.empty())
      return {&S, false};
    ++Count;
    return {&S, true};
  }

  /// Removes \p K if present; returns true when an entry was removed.
  bool erase(const KeyType &K) {
    size_t I = probe(K);
    if (Table[I].empty())
      return false;
    eraseAt(I);
    return true;
  }

  /// Removes the slot \p S returned by find() or insert(). Its contents do
  /// not matter any more (a count may already have dropped to zero).
  void erase(Slot *S) { eraseAt(static_cast<size_t>(S - Table.data())); }

  /// Calls \p Fn(const Slot &) for every live slot, in table order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const Slot &S : Table)
      if (!S.empty())
        F(S);
  }

private:
  static constexpr size_t MinCapacity = 16;

  size_t probe(const KeyType &K) const {
    size_t Mask = Table.size() - 1;
    size_t I = Slot::hash(K) & Mask;
    while (!Table[I].empty() && !(Table[I].key() == K))
      I = (I + 1) & Mask;
    return I;
  }

  /// Backward-shift deletion: each later entry of the run slides into the
  /// hole unless its home slot lies (cyclically) after the hole — then the
  /// hole does not break its probe chain.
  void eraseAt(size_t Hole) {
    size_t Mask = Table.size() - 1;
    for (size_t Next = (Hole + 1) & Mask; !Table[Next].empty();
         Next = (Next + 1) & Mask) {
      size_t Home = Slot::hash(Table[Next].key()) & Mask;
      bool HoleInChain = Next >= Home ? (Home <= Hole && Hole < Next)
                                      : (Home <= Hole || Hole < Next);
      if (HoleInChain) {
        Table[Hole] = Table[Next];
        Hole = Next;
      }
    }
    Table[Hole] = Slot();
    --Count;
  }

  void rehash(size_t NewCapacity) {
    std::vector<Slot> Old = std::move(Table);
    Table.assign(NewCapacity, Slot());
    for (const Slot &S : Old)
      if (!S.empty())
        Table[probe(S.key())] = S;
  }

  std::vector<Slot> Table;
  size_t Count = 0;
};

/// The splitmix64 finalizer: full avalanche, so masking the low bits of
/// the result spreads sequential keys across the table.
inline uint64_t mixHash64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace awdit

#endif // AWDIT_SUPPORT_FLAT_TABLE_H
