// recnet_ckpt — session checkpoint inspector.
//
//   recnet_ckpt <snapshot>            describe the snapshot
//   recnet_ckpt --verify <snapshot>   also recompute and check the checksum
//
// Reads only the self-describing summary (persist/snapshot.h): deployment
// parameters, per-relation live-fact counts, per-view provenance modes and
// message totals, and the serialized BDD unique-table size. Exits non-zero
// (with the typed error on stderr) when the file is missing, truncated,
// version-skewed, or — under --verify — fails its checksum.

#include <cstdio>
#include <cstring>
#include <string>

#include "persist/snapshot.h"
#include "persist/wire.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--verify] <snapshot>\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool verify = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (path == nullptr) return Usage(argv[0]);

  recnet::persist::SnapshotHeader header;
  recnet::persist::SnapshotSummary summary;
  recnet::Status st =
      recnet::persist::InspectSnapshot(path, verify, &header, &summary);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", path, st.ToString().c_str());
    return 1;
  }

  std::printf("%s\n", path);
  std::printf("  format version %u, payload %llu bytes, checksum %016llx%s\n",
              header.version,
              static_cast<unsigned long long>(header.payload_size),
              static_cast<unsigned long long>(header.checksum),
              verify ? " (verified)" : "");
  std::printf(
      "  deployment: %d logical nodes on %d physical peers, %d shard(s)\n",
      summary.num_nodes, summary.num_physical, summary.shards);
  std::printf("  bdd: %u serialized node(s)\n", summary.bdd_nodes);
  std::printf("  relations (%zu):\n", summary.relations.size());
  for (const auto& rel : summary.relations) {
    std::printf("    %-20s arity %llu  %-10s %llu live fact(s)\n",
                rel.name.c_str(), static_cast<unsigned long long>(rel.arity),
                rel.dynamic ? "dynamic" : "static",
                static_cast<unsigned long long>(rel.live_facts));
  }
  std::printf("  views (%zu):\n", summary.views.size());
  for (const auto& view : summary.views) {
    std::printf("    %-20s prov %-10s %llu message(s)\n", view.name.c_str(),
                view.prov_mode.c_str(),
                static_cast<unsigned long long>(view.messages));
  }
  return 0;
}
