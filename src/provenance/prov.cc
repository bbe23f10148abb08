#include "provenance/prov.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace recnet {
namespace {

std::shared_ptr<const RelSop> EmptyRel() {
  static const std::shared_ptr<const RelSop>* kEmpty =
      new std::shared_ptr<const RelSop>(std::make_shared<RelSop>());
  return *kEmpty;
}

std::shared_ptr<const RelSop> TrueRel() {
  // One empty derivation: derivable with no base support (static fact).
  static const std::shared_ptr<const RelSop>* kTrue = [] {
    auto r = std::make_shared<RelSop>();
    r->derivations.push_back({});
    return new std::shared_ptr<const RelSop>(std::move(r));
  }();
  return *kTrue;
}

void Normalize(RelSop* r) {
  std::sort(r->derivations.begin(), r->derivations.end());
  r->derivations.erase(
      std::unique(r->derivations.begin(), r->derivations.end()),
      r->derivations.end());
}

}  // namespace

const char* ProvModeName(ProvMode mode) {
  switch (mode) {
    case ProvMode::kSet:
      return "set";
    case ProvMode::kAbsorption:
      return "absorption";
    case ProvMode::kRelative:
      return "relative";
  }
  return "?";
}

Prov Prov::FromBdd(bdd::Bdd b) {
  Prov p(ProvMode::kAbsorption, false);
  p.bdd_ = std::move(b);
  return p;
}

Prov Prov::FromRel(std::shared_ptr<const RelSop> rel) {
  Prov p(ProvMode::kRelative, false);
  p.rel_ = std::move(rel);
  return p;
}

Prov Prov::True(ProvMode mode, bdd::Manager* mgr) {
  switch (mode) {
    case ProvMode::kSet:
      return Prov(ProvMode::kSet, true);
    case ProvMode::kAbsorption:
      // The TRUE terminal is a manager-independent constant; `mgr` may be
      // null for annotations that never compose (retraction markers).
      return FromBdd(bdd::Bdd(mgr, bdd::kTrue));
    case ProvMode::kRelative:
      return FromRel(TrueRel());
  }
  RECNET_CHECK(false);
  return Prov();
}

Prov Prov::False(ProvMode mode, bdd::Manager* mgr) {
  switch (mode) {
    case ProvMode::kSet:
      return Prov(ProvMode::kSet, false);
    case ProvMode::kAbsorption:
      return FromBdd(bdd::Bdd(mgr, bdd::kFalse));
    case ProvMode::kRelative:
      return FromRel(EmptyRel());
  }
  RECNET_CHECK(false);
  return Prov();
}

Prov Prov::BaseVar(ProvMode mode, bdd::Manager* mgr, bdd::Var v) {
  switch (mode) {
    case ProvMode::kSet:
      return Prov(ProvMode::kSet, true);
    case ProvMode::kAbsorption:
      return FromBdd(bdd::Bdd(mgr, mgr->MakeVar(v)));
    case ProvMode::kRelative: {
      auto r = std::make_shared<RelSop>();
      r->derivations.push_back({v});
      return FromRel(std::move(r));
    }
  }
  RECNET_CHECK(false);
  return Prov();
}

Prov Prov::And(const Prov& o) const {
  RECNET_DCHECK(mode_ == o.mode_);
  switch (mode_) {
    case ProvMode::kSet:
      return Prov(ProvMode::kSet, set_true_ && o.set_true_);
    case ProvMode::kAbsorption:
      return FromBdd(bdd_.And(o.bdd_));
    case ProvMode::kRelative: {
      auto out = std::make_shared<RelSop>();
      out->derivations.reserve(rel_->derivations.size() *
                               o.rel_->derivations.size());
      for (const auto& a : rel_->derivations) {
        for (const auto& b : o.rel_->derivations) {
          std::vector<bdd::Var> merged;
          merged.reserve(a.size() + b.size());
          std::merge(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(merged));
          merged.erase(std::unique(merged.begin(), merged.end()),
                       merged.end());
          out->derivations.push_back(std::move(merged));
        }
      }
      Normalize(out.get());
      return FromRel(std::move(out));
    }
  }
  RECNET_CHECK(false);
  return Prov();
}

Prov Prov::Or(const Prov& o) const {
  RECNET_DCHECK(mode_ == o.mode_);
  switch (mode_) {
    case ProvMode::kSet:
      return Prov(ProvMode::kSet, set_true_ || o.set_true_);
    case ProvMode::kAbsorption:
      return FromBdd(bdd_.Or(o.bdd_));
    case ProvMode::kRelative: {
      auto out = std::make_shared<RelSop>();
      out->derivations.reserve(rel_->derivations.size() +
                               o.rel_->derivations.size());
      std::set_union(rel_->derivations.begin(), rel_->derivations.end(),
                     o.rel_->derivations.begin(), o.rel_->derivations.end(),
                     std::back_inserter(out->derivations));
      return FromRel(std::move(out));
    }
  }
  RECNET_CHECK(false);
  return Prov();
}

Prov Prov::DeltaOver(const Prov& o) const {
  RECNET_DCHECK(mode_ == o.mode_);
  switch (mode_) {
    case ProvMode::kSet:
      return Prov(ProvMode::kSet, set_true_ && !o.set_true_);
    case ProvMode::kAbsorption:
      return FromBdd(bdd_.Diff(o.bdd_));
    case ProvMode::kRelative: {
      auto out = std::make_shared<RelSop>();
      std::set_difference(rel_->derivations.begin(), rel_->derivations.end(),
                          o.rel_->derivations.begin(),
                          o.rel_->derivations.end(),
                          std::back_inserter(out->derivations));
      return FromRel(std::move(out));
    }
  }
  RECNET_CHECK(false);
  return Prov();
}

bool Prov::Implies(const Prov& o) const {
  RECNET_DCHECK(mode_ == o.mode_);
  switch (mode_) {
    case ProvMode::kSet:
      return !set_true_ || o.set_true_;
    case ProvMode::kAbsorption: {
      // A null-manager side is a constant, and the constant refs mean the
      // same in every manager.
      bdd::Manager* mgr =
          bdd_.manager() != nullptr ? bdd_.manager() : o.bdd_.manager();
      if (mgr == nullptr) return bdd_.IsFalse() || o.bdd_.IsTrue();
      return mgr->Leq(bdd_.index(), o.bdd_.index());
    }
    case ProvMode::kRelative:
      return std::includes(o.rel_->derivations.begin(),
                           o.rel_->derivations.end(),
                           rel_->derivations.begin(), rel_->derivations.end());
  }
  RECNET_CHECK(false);
  return false;
}

Prov Prov::RestrictFalse(const std::vector<bdd::Var>& killed) const {
  Prov out = *this;
  out.RestrictFalseInPlace(killed, bdd::Manager::SigMask(killed));
  return out;
}

bool Prov::RestrictFalseSlow(const std::vector<bdd::Var>& killed) {
  switch (mode_) {
    case ProvMode::kSet:
      return false;
    case ProvMode::kAbsorption: {
      bdd::Manager* mgr = bdd_.manager();
      bdd::BddRef r = mgr->RestrictAllFalse(bdd_.index(), killed);
      if (r == bdd_.index()) return false;
      bdd_ = bdd::Bdd(mgr, r);
      return true;
    }
    case ProvMode::kRelative: {
      auto out = std::make_shared<RelSop>();
      for (const auto& d : rel_->derivations) {
        bool dead = false;
        for (bdd::Var v : killed) {
          if (std::binary_search(d.begin(), d.end(), v)) {
            dead = true;
            break;
          }
        }
        if (!dead) out->derivations.push_back(d);
      }
      if (out->derivations.size() == rel_->derivations.size()) return false;
      rel_ = std::move(out);
      return true;
    }
  }
  RECNET_CHECK(false);
  return false;
}

bool Prov::IsFalse() const {
  switch (mode_) {
    case ProvMode::kSet:
      return !set_true_;
    case ProvMode::kAbsorption:
      return bdd_.IsFalse();
    case ProvMode::kRelative:
      return rel_->derivations.empty();
  }
  RECNET_CHECK(false);
  return true;
}

bool Prov::operator==(const Prov& o) const {
  if (mode_ != o.mode_) return false;
  switch (mode_) {
    case ProvMode::kSet:
      return set_true_ == o.set_true_;
    case ProvMode::kAbsorption:
      return bdd_ == o.bdd_;  // Canonical: pointer equality is semantic.
    case ProvMode::kRelative:
      return *rel_ == *o.rel_;
  }
  RECNET_CHECK(false);
  return false;
}

size_t Prov::WireSizeBytes() const {
  switch (mode_) {
    case ProvMode::kSet:
      return 0;
    case ProvMode::kAbsorption:
      return bdd_.SerializedSizeBytes();
    case ProvMode::kRelative: {
      // Relative provenance serializes derivation edges whose members are
      // full tuple/base-fact descriptors (site, relation, key — cf. the
      // mapping tables of [14]), not compact variable ids: ~20 bytes per
      // member. This is why the paper measures larger per-tuple overhead
      // for relative provenance than for absorption provenance.
      size_t bytes = 4;
      for (const auto& d : rel_->derivations) bytes += 2 + 20 * d.size();
      return bytes;
    }
  }
  RECNET_CHECK(false);
  return 0;
}

void Prov::SupportVars(std::vector<bdd::Var>* vars) const {
  switch (mode_) {
    case ProvMode::kSet:
      return;
    case ProvMode::kAbsorption:
      bdd_.manager()->Support(bdd_.index(), vars);
      return;
    case ProvMode::kRelative: {
      std::set<bdd::Var> all;
      for (const auto& d : rel_->derivations) all.insert(d.begin(), d.end());
      vars->insert(vars->end(), all.begin(), all.end());
      return;
    }
  }
}

std::string Prov::ToString() const {
  std::ostringstream os;
  switch (mode_) {
    case ProvMode::kSet:
      os << (set_true_ ? "true" : "false");
      break;
    case ProvMode::kAbsorption:
      os << "bdd[" << bdd_.index() << "," << bdd_.CountNodes() << "n]";
      break;
    case ProvMode::kRelative: {
      os << "{";
      bool first_d = true;
      for (const auto& d : rel_->derivations) {
        if (!first_d) os << " v ";
        first_d = false;
        if (d.empty()) os << "T";
        for (size_t i = 0; i < d.size(); ++i) {
          if (i > 0) os << "^";
          os << "p" << d[i];
        }
      }
      os << "}";
      break;
    }
  }
  return os.str();
}

}  // namespace recnet
