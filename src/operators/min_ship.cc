#include "operators/min_ship.h"

namespace recnet {

const char* ShipModeName(ShipMode mode) {
  switch (mode) {
    case ShipMode::kDirect:
      return "direct";
    case ShipMode::kEager:
      return "eager";
    case ShipMode::kLazy:
      return "lazy";
  }
  return "?";
}

MinShip::MinShip(ProvMode prov_mode, ShipMode ship_mode, size_t batch_window,
                 SendFn send)
    : prov_mode_(prov_mode),
      ship_mode_(ship_mode),
      batch_window_(batch_window),
      send_(std::move(send)) {
  RECNET_CHECK(send_ != nullptr);
}

namespace {

// Live BDD nodes of an absorption annotation (0 for the other provenance
// modes, whose width never feeds the demotion policy). CountNodes is
// memoized per root in the manager, so repeated probes of a stable
// annotation are one hash lookup.
size_t AnnotationWidth(const Prov& pv) {
  if (pv.mode() != ProvMode::kAbsorption || pv.bdd().is_null()) return 0;
  return pv.bdd().CountNodes();
}

}  // namespace

void MinShip::ProcessInsert(const Tuple& tuple, const Prov& pv) {
  // One probe handles both the first-derivation and the merge path.
  auto [sent, is_new] = bsent_.try_emplace(tuple, pv);
  if (is_new) {
    // Algorithm 3 lines 11-13: first derivation ships right away.
    send_(tuple, pv);
  } else if (!pv.Implies(sent->second)) {
    // Not absorbed by what was shipped. The test builds no BDD; each Or
    // below is built only where its result is used.
    if (ship_mode_ == ShipMode::kDirect) {
      // Conventional Ship: forward every non-absorbed derivation.
      sent->second = sent->second.Or(pv);
      send_(tuple, pv);
    } else {
      // Adaptive demotion: once this tuple's full annotation (shipped ∨
      // new) is wider than the ceiling, eager re-shipping of it each batch
      // window costs more Or-churn than its freshness is worth.
      if (ship_mode_ == ShipMode::kEager && !demoted_ &&
          AnnotationWidth(sent->second.Or(pv)) > kEagerDemoteWidth) {
        demoted_ = true;
        ++demotions_;
      }
      // Lines 15-18: buffer the derivation.
      auto [it, inserted] = pins_.emplace(tuple, pv);
      if (!inserted) it->second = it->second.Or(pv);
    }
  }
  if (ship_mode_ == ShipMode::kEager && !demoted_ &&
      ++since_flush_ >= batch_window_) {
    Flush();
  }
}

void MinShip::ProcessKill(const std::vector<bdd::Var>& killed) {
  // Restrict the buffered (unshipped) derivations first (Algorithm 3
  // lines 20-25).
  const uint64_t mask = bdd::Manager::SigMask(killed);
  for (auto it = pins_.begin(); it != pins_.end();) {
    if (it->second.RestrictFalseInPlace(killed, mask) &&
        it->second.IsFalse()) {
      it = pins_.erase(it);
    } else {
      ++it;
    }
  }
  // A shipped derivation that dies is replaced by a surviving buffered
  // alternative, shipped immediately so downstream can re-derive
  // (BatchShipLazy lines 6-12 applied at deletion time). Promotions go out
  // in Bsent iteration order.
  for (auto it = bsent_.begin(); it != bsent_.end();) {
    if (!it->second.RestrictFalseInPlace(killed, mask) ||
        !it->second.IsFalse()) {
      ++it;
      continue;
    }
    auto buffered = pins_.find(it->first);
    if (buffered != pins_.end()) {
      it->second = buffered->second;
      send_(it->first, buffered->second);
      pins_.erase(buffered);
      ++it;
    } else {
      it = bsent_.erase(it);
    }
  }
}

void MinShip::ProcessDelete(const Tuple& tuple) {
  bsent_.erase(tuple);
  pins_.erase(tuple);
}

void MinShip::FlushIfDemoted() {
  if (!demoted_ || pins_.empty()) return;
  // Quiescence: the insert storm that tripped the ceiling has drained.
  // Re-absorb the buffer against what was shipped — pins whose merged
  // annotation no longer adds anything over Bsent are dropped — but ship
  // nothing: forwarding the wide buffered derivations downstream seeds the
  // receiving joins with huge operands and re-ignites the Or-storm the
  // demotion exists to stop. The surviving pins keep lazy semantics (they
  // ship only when a kill promotes them). Demotion is sticky for the rest
  // of the run: annotation widths only grow, so re-arming eager mode just
  // thrashes demote/flush cycles.
  for (auto it = pins_.begin(); it != pins_.end();) {
    auto sent = bsent_.find(it->first);
    if (sent != bsent_.end() && it->second.Implies(sent->second)) {
      it = pins_.erase(it);
    } else {
      ++it;
    }
  }
}

void MinShip::Flush() {
  since_flush_ = 0;
  for (auto& [tuple, pv] : pins_) {
    auto sent = bsent_.find(tuple);
    if (sent == bsent_.end()) {
      bsent_.emplace(tuple, pv);
    } else {
      sent->second = sent->second.Or(pv);
    }
    send_(tuple, pv);
  }
  pins_.clear();
}

size_t MinShip::StateSizeBytes() const {
  size_t bytes = 0;
  for (const auto& [tuple, pv] : bsent_) {
    bytes += tuple.WireSizeBytes() + pv.WireSizeBytes();
  }
  for (const auto& [tuple, pv] : pins_) {
    bytes += tuple.WireSizeBytes() + pv.WireSizeBytes();
  }
  return bytes;
}

}  // namespace recnet
