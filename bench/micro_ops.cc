// Micro-benchmarks (google-benchmark) for the substrates: BDD algebra,
// provenance composition, operator hot paths.

#include <benchmark/benchmark.h>

#include "bdd/bdd.h"
#include "common/rng.h"
#include "operators/fixpoint.h"
#include "operators/hash_join.h"
#include "operators/min_ship.h"
#include "provenance/prov.h"

namespace recnet {
namespace {

void BM_BddAndChain(benchmark::State& state) {
  bdd::Manager mgr;
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    // Bdd handles pin intermediates: long benchmark loops accumulate
    // garbage and trigger collections.
    bdd::Bdd f(&mgr, mgr.True());
    for (int v = 0; v < n; ++v) {
      f = f.And(bdd::Bdd(&mgr, mgr.MakeVar(v)));
    }
    benchmark::DoNotOptimize(f.index());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BddAndChain)->Arg(8)->Arg(64)->Arg(256)->Iterations(5000);

void BM_BddOrOfProducts(benchmark::State& state) {
  bdd::Manager mgr;
  const int terms = static_cast<int>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    bdd::Bdd f(&mgr, mgr.False());
    for (int t = 0; t < terms; ++t) {
      // Products over a contiguous variable window: path-provenance-like
      // locality (random sparse DNF would be an exponential worst case for
      // ROBDDs and measure nothing useful).
      bdd::Var base = static_cast<bdd::Var>(rng.NextBounded(20));
      bdd::Bdd p(&mgr, mgr.True());
      for (bdd::Var j = 0; j < 4; ++j) {
        p = p.And(bdd::Bdd(&mgr, mgr.MakeVar(base + j)));
      }
      f = f.Or(p);
    }
    benchmark::DoNotOptimize(f.index());
  }
  state.SetItemsProcessed(state.iterations() * terms);
}
BENCHMARK(BM_BddOrOfProducts)->Arg(16)->Arg(128)->Iterations(1000);

void BM_BddRestrict(benchmark::State& state) {
  bdd::Manager mgr;
  Rng rng(11);
  bdd::Bdd f(&mgr, mgr.False());
  for (int t = 0; t < 64; ++t) {
    bdd::Var base = static_cast<bdd::Var>(rng.NextBounded(28));
    bdd::Bdd p(&mgr, mgr.True());
    for (bdd::Var j = 0; j < 4; ++j) {
      p = p.And(bdd::Bdd(&mgr, mgr.MakeVar(base + j)));
    }
    f = f.Or(p);
  }
  bdd::Var v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.Restrict(f.index(), v, false));
    v = (v + 1) % 32;
  }
}
BENCHMARK(BM_BddRestrict)->Iterations(50000);

// O(1) complement-edge negation: Not() is a tag flip, so the timed loop
// must leave the unique-table probe and node-allocation counters exactly
// where they started. A probe or an allocation here means the tagged-ref
// invariant broke, so the bench hard-fails rather than just timing it.
void BM_BddNotO1(benchmark::State& state) {
  bdd::Manager mgr;
  Rng rng(13);
  bdd::Bdd f(&mgr, mgr.False());
  for (int t = 0; t < 64; ++t) {
    bdd::Var base = static_cast<bdd::Var>(rng.NextBounded(24));
    bdd::Bdd p(&mgr, mgr.True());
    for (bdd::Var j = 0; j < 4; ++j) {
      p = p.And(bdd::Bdd(&mgr, mgr.MakeVar(base + j)));
    }
    f = f.Or(p);
  }
  const uint64_t probes_before = mgr.unique_probes();
  const size_t nodes_before = mgr.allocated_nodes();
  bdd::BddRef r = f.index();
  for (auto _ : state) {
    r = mgr.Not(r);
    benchmark::DoNotOptimize(r);
  }
  if (mgr.unique_probes() != probes_before) {
    state.SkipWithError("Not() touched the unique table");
  }
  if (mgr.allocated_nodes() != nodes_before) {
    state.SkipWithError("Not() allocated nodes");
  }
}
BENCHMARK(BM_BddNotO1)->Iterations(1000000);

// Restrict of a variable the function does not depend on — the common case
// when a kill visits an annotation. The wide function uses even variables
// only, so every odd variable (inside the order's range, not past it) has
// a clear support-signature bit and Restrict returns at the root: the timed
// loop must leave the unique-table probe and op-cache lookup counters
// exactly where they started, or the bench hard-fails.
void BM_BddRestrictAbsent(benchmark::State& state) {
  bdd::Manager mgr;
  Rng rng(19);
  bdd::Bdd f(&mgr, mgr.False());
  for (int t = 0; t < 64; ++t) {
    bdd::Var base = static_cast<bdd::Var>(rng.NextBounded(24));
    bdd::Bdd p(&mgr, mgr.True());
    for (bdd::Var j = 0; j < 4; ++j) {
      p = p.And(bdd::Bdd(&mgr, mgr.MakeVar(2 * (base + j))));
    }
    f = f.Or(p);
  }
  const uint64_t probes_before = mgr.unique_probes();
  const uint64_t lookups_before = mgr.cache_lookups();
  bdd::Var v = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.Restrict(f.index(), v, false));
    v = (v + 2) % 32;
  }
  if (mgr.unique_probes() != probes_before) {
    state.SkipWithError("Restrict of an absent variable probed the table");
  }
  if (mgr.cache_lookups() != lookups_before) {
    state.SkipWithError("Restrict of an absent variable walked the BDD");
  }
}
BENCHMARK(BM_BddRestrictAbsent)->Iterations(1000000);

// The absorption test of every Fixpoint, join, MinShip and AggSel merge:
// Leq of a product against a wide sum, over products the sum absorbs and
// products it does not. Leq interns nothing, so the first (uncached) pass
// over the pairs and the timed loop must leave the unique-table probe and
// node-allocation counters exactly where they started, or the bench
// hard-fails.
void BM_BddLeq(benchmark::State& state) {
  bdd::Manager mgr;
  Rng rng(29);
  std::vector<bdd::Bdd> products;
  bdd::Bdd sum(&mgr, mgr.False());
  for (int t = 0; t < 64; ++t) {
    bdd::Var base = static_cast<bdd::Var>(rng.NextBounded(24));
    bdd::Bdd p(&mgr, mgr.True());
    for (bdd::Var j = 0; j < 4; ++j) {
      p = p.And(bdd::Bdd(&mgr, mgr.MakeVar(base + j)));
    }
    // Half the products go into the sum; the rest are mostly not absorbed.
    if (t % 2 == 0) sum = sum.Or(p);
    products.push_back(p);
  }
  const uint64_t probes_before = mgr.unique_probes();
  const size_t nodes_before = mgr.allocated_nodes();
  size_t implied = 0;
  for (const bdd::Bdd& p : products) {
    implied += mgr.Leq(p.index(), sum.index()) ? 1 : 0;
  }
  if (implied == 0 || implied == products.size()) {
    state.SkipWithError("Leq pairs are not a mix of implied and not");
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.Leq(products[i].index(), sum.index()));
    i = (i + 1) % products.size();
  }
  if (mgr.unique_probes() != probes_before) {
    state.SkipWithError("Leq touched the unique table");
  }
  if (mgr.allocated_nodes() != nodes_before) {
    state.SkipWithError("Leq allocated nodes");
  }
}
BENCHMARK(BM_BddLeq)->Iterations(1000000);

// Diff over complemented operands: Diff(¬a, ¬b) = And(¬a, b) recurses on
// the same tagged pairs as earlier And calls, so after a warm-up pass the
// steady state is pure op-cache hits — no materialized negation of either
// operand is ever built.
void BM_BddDiffComplemented(benchmark::State& state) {
  bdd::Manager mgr;
  Rng rng(17);
  auto product = [&](int seed) {
    Rng r(seed);
    bdd::Bdd p(&mgr, mgr.True());
    for (int j = 0; j < 6; ++j) {
      p = p.And(bdd::Bdd(&mgr, mgr.MakeVar(static_cast<bdd::Var>(
                                  r.NextBounded(24)))));
    }
    return p;
  };
  bdd::Bdd a = product(1).Or(product(2)).Or(product(3));
  bdd::Bdd b = product(4).Or(product(5)).Or(product(6));
  const bdd::BddRef na = mgr.Not(a.index());
  const bdd::BddRef nb = mgr.Not(b.index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.Diff(na, nb));
  }
  state.counters["cache_hit_rate"] =
      mgr.cache_lookups() == 0
          ? 0.0
          : static_cast<double>(mgr.cache_hits()) /
                static_cast<double>(mgr.cache_lookups());
}
BENCHMARK(BM_BddDiffComplemented)->Iterations(200000);

// Negated-result sharing on a deep Or chain: with complement edges,
// Or(a, b) = ¬And(¬a, ¬b), so re-deriving the chain's De Morgan dual
// (And of the negated products) walks cache entries the forward pass
// already populated. The /0 variant measures the forward chain alone; the
// /1 variant appends the dual pass, which must ride the warm cache rather
// than re-expanding the recursion.
void BM_BddOrChainNegated(benchmark::State& state) {
  bdd::Manager mgr;
  const bool negate = state.range(0) != 0;
  Rng rng(23);
  std::vector<bdd::Bdd> products;
  for (int t = 0; t < 64; ++t) {
    bdd::Var base = static_cast<bdd::Var>(rng.NextBounded(20));
    bdd::Bdd p(&mgr, mgr.True());
    for (bdd::Var j = 0; j < 4; ++j) {
      p = p.And(bdd::Bdd(&mgr, mgr.MakeVar(base + j)));
    }
    products.push_back(p);
  }
  for (auto _ : state) {
    bdd::Bdd f(&mgr, mgr.False());
    for (const bdd::Bdd& p : products) f = f.Or(p);
    if (negate) {
      bdd::Bdd g(&mgr, mgr.True());
      for (const bdd::Bdd& p : products) {
        g = g.And(bdd::Bdd(&mgr, mgr.Not(p.index())));
      }
      if (g.index() != mgr.Not(f.index())) {
        state.SkipWithError("De Morgan dual is not the complement edge");
      }
      benchmark::DoNotOptimize(g.index());
    }
    benchmark::DoNotOptimize(f.index());
  }
  state.counters["cache_hit_rate"] =
      mgr.cache_lookups() == 0
          ? 0.0
          : static_cast<double>(mgr.cache_hits()) /
                static_cast<double>(mgr.cache_lookups());
}
BENCHMARK(BM_BddOrChainNegated)->Arg(0)->Arg(1)->Iterations(2000);

void BM_FixpointInsertAbsorption(benchmark::State& state) {
  bdd::Manager mgr;
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    Fixpoint fix(ProvMode::kAbsorption);
    state.ResumeTiming();
    for (int i = 0; i < 512; ++i) {
      Tuple t = Tuple::OfInts({static_cast<int64_t>(rng.NextBounded(64)),
                               static_cast<int64_t>(rng.NextBounded(64))});
      Prov pv = Prov::BaseVar(ProvMode::kAbsorption, &mgr,
                              static_cast<bdd::Var>(rng.NextBounded(256)));
      benchmark::DoNotOptimize(fix.ProcessInsert(t, pv));
    }
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FixpointInsertAbsorption)->Iterations(200);

void BM_PipelinedHashJoinProbe(benchmark::State& state) {
  bdd::Manager mgr;
  PipelinedHashJoin join(ProvMode::kAbsorption, {1}, {0},
                         [](const Tuple& l, const Tuple& r) {
                           return Tuple::OfInts({l.IntAt(0), r.IntAt(1)});
                         });
  for (int64_t i = 0; i < 64; ++i) {
    join.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({i, 0}),
                       Prov::BaseVar(ProvMode::kAbsorption, &mgr,
                                     static_cast<bdd::Var>(i)));
  }
  int64_t next = 0;
  for (auto _ : state) {
    Tuple probe = Tuple::OfInts({0, next});
    benchmark::DoNotOptimize(join.ProcessInsert(
        PipelinedHashJoin::kRight, probe,
        Prov::BaseVar(ProvMode::kAbsorption, &mgr,
                      static_cast<bdd::Var>(1000 + (next % 512)))));
    ++next;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PipelinedHashJoinProbe)->Iterations(10000);

void BM_MinShipLazyAbsorbs(benchmark::State& state) {
  bdd::Manager mgr;
  size_t sent = 0;
  MinShip ship(ProvMode::kAbsorption, ShipMode::kLazy, 8,
               [&sent](const Tuple&, const Prov&) { ++sent; });
  Rng rng(5);
  for (auto _ : state) {
    Tuple t = Tuple::OfInts({static_cast<int64_t>(rng.NextBounded(32)), 1});
    ship.ProcessInsert(t, Prov::BaseVar(ProvMode::kAbsorption, &mgr,
                                        static_cast<bdd::Var>(
                                            rng.NextBounded(512))));
  }
  benchmark::DoNotOptimize(sent);
}
BENCHMARK(BM_MinShipLazyAbsorbs)->Iterations(50000);

void BM_RelativeProvCompose(benchmark::State& state) {
  bdd::Manager mgr;
  Prov a = Prov::BaseVar(ProvMode::kRelative, &mgr, 1);
  Prov b = Prov::BaseVar(ProvMode::kRelative, &mgr, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.And(b).Or(a));
  }
}
BENCHMARK(BM_RelativeProvCompose)->Iterations(50000);

}  // namespace
}  // namespace recnet

BENCHMARK_MAIN();
