#ifndef RECNET_PERSIST_CODEC_H_
#define RECNET_PERSIST_CODEC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "bdd/bdd.h"
#include "common/value.h"
#include "engine/metrics.h"
#include "net/router_shard.h"
#include "persist/wire.h"
#include "provenance/prov.h"

namespace recnet {
namespace persist {

// Serializes BDD roots against one shared node table: every root encoded
// through one encoder contributes its reachable internal nodes exactly once,
// children before parents, with manager-independent remapped refs mirroring
// the in-memory tagging — (remapped node id << 1) | complement bit, node
// id 0 the single TRUE terminal, internal node i = table position i + 1.
// The table is emitted separately from the sections
// referencing the roots, so a snapshot stores the manager's live graph once
// no matter how many annotations share it — the on-disk analogue of
// hash-consing.
//
// The node-index -> table-id map is dense: one u32 per index the manager
// has ever allocated (4 B each, 0 = not yet interned), grown to
// Manager::allocated_nodes() whenever an Encode call finds it short. A
// checkpoint encodes most of the live graph, so a flat array costs less
// memory than a hash map over the encoded nodes (~40 B each) and no hashing
// at all; the DFS stack is a member reused by every call. Node indices are
// only looked up, never ordered on, so table order and root ids depend only
// on the roots' graphs and the order they are encoded in.
class BddEncoder {
 public:
  explicit BddEncoder(const bdd::Manager* mgr) : mgr_(mgr) {}

  // Returns the remapped tagged ref of `root`, interning its subgraph on
  // first use. The complement bit of `root` round-trips through the low bit
  // of the returned id.
  uint32_t Encode(bdd::BddRef root);

  // u32 node count, then (u32 var, u32 low ref, u32 high ref) per node in
  // table order, written as one block. Children-before-parents, so a
  // decoder interns in one pass.
  void WriteNodeTable(Writer* w) const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  // The on-disk record itself: three packed native u32s.
  struct EncodedNode {
    uint32_t var;
    uint32_t low;
    uint32_t high;
  };
  static_assert(sizeof(EncodedNode) == 3 * sizeof(uint32_t),
                "a table entry is written as its raw bytes");

  const bdd::Manager* mgr_;
  // Table id (position + 1) by node index, complement stripped: a root and
  // its negation share one table entry, exactly as they share one stored
  // node. 0 means not yet interned.
  std::vector<uint32_t> id_of_;
  std::vector<EncodedNode> nodes_;
  // Post-order DFS stack: (node index, children already pushed).
  std::vector<std::pair<bdd::NodeIndex, bool>> stack_;
};

// Decodes a BddEncoder node table into a live manager, holding a protecting
// reference on every interned node until the decoder is destroyed (fresh
// nodes start unreferenced, and restore runs long enough that a GC could
// otherwise reclaim a node before the annotation referencing it is built).
class BddDecoder {
 public:
  explicit BddDecoder(bdd::Manager* mgr) : mgr_(mgr) {}

  Status ReadNodeTable(Reader* r);

  // Live tagged ref for a remapped id; trips `r`'s error flag on a dangling
  // id (corrupt payload) and returns FALSE.
  bdd::BddRef Resolve(uint32_t id, Reader* r) const;

  bdd::Manager* manager() const { return mgr_; }

 private:
  bdd::Manager* mgr_;
  // Live (possibly complemented) refs by table position.
  std::vector<bdd::BddRef> index_of_;
  std::vector<bdd::Bdd> protect_;
};

// Typed encoding layer over Writer: engine values, tuples, provenance
// annotations (BDD roots go through the shared encoder) and metric structs.
class SnapshotWriter {
 public:
  SnapshotWriter(Writer* out, BddEncoder* bdds) : out_(out), bdds_(bdds) {}

  Writer& raw() { return *out_; }

  void PutValue(const Value& v);
  void PutTuple(const Tuple& t);
  void PutProv(const Prov& p);
  void PutStats(const NetworkStats& s);
  void PutMetrics(const RunMetrics& m);

 private:
  Writer* out_;
  BddEncoder* bdds_;
};

// Typed decoding counterpart; `mgr` owns restored BDD roots and annotations.
class SnapshotReader {
 public:
  SnapshotReader(Reader* in, BddDecoder* bdds) : in_(in), bdds_(bdds) {}

  Reader& raw() { return *in_; }
  Status Check(const char* what) const { return in_->Check(what); }

  Value GetValue();
  Tuple GetTuple();
  Prov GetProv();
  NetworkStats GetStats();
  RunMetrics GetMetrics();

 private:
  Reader* in_;
  BddDecoder* bdds_;
};

}  // namespace persist
}  // namespace recnet

#endif  // RECNET_PERSIST_CODEC_H_
