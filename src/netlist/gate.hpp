// Gate library for the asynchronous-circuit netlist model.
//
// Following the paper's circuit model (§3): a circuit is an interconnection
// of gates, each paired with an unbounded positive inertial delay.  Primary
// inputs are modeled as identity-function buffers driven by the environment.
// Sequential primitives of speed-independent design (Muller C-element,
// generalized C-element) are atomic gates whose next value depends on their
// own current output — exactly the "complex gate" assumption under which
// SI synthesis guarantees hazard freedom.
//
// Gate semantics are defined once, generically, over a boolean-like algebra
// (eval_gate below) so that plain simulation, two-rail ternary simulation,
// 64-lane parallel fault simulation, and symbolic BDD construction all share
// one definition and cannot drift apart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "xatpg/types.hpp"  // SignalId / kNoSignal (public API types)

namespace xatpg {

enum class GateType : std::uint8_t {
  Input,  ///< primary input (identity buffer driven by the environment)
  Buf,
  Not,
  And,
  Or,
  Nand,
  Nor,
  Xor,
  Xnor,
  Maj,    ///< 3-input majority
  Celem,  ///< Muller C-element: all-1 sets, all-0 resets, otherwise holds
  Gc,     ///< generalized C-element: set/reset SOP covers, otherwise holds
  Sop,    ///< two-level sum-of-products complex gate
};

/// Human-readable gate type name (used by the netlist writer).
const char* gate_type_name(GateType type);
/// Parse a gate type name; arity suffixes ("AND2") are accepted.
GateType parse_gate_type(const std::string& token);
/// True for gates whose next value depends on their own current output.
bool is_state_holding(GateType type);

/// One product term over a gate's fanins: lits[i] is 0 (negated), 1 (plain),
/// or -1 (absent) for fanin position i.
struct Cube {
  std::vector<std::int8_t> lits;

  bool operator==(const Cube&) const = default;
};

/// Sum-of-products cover.
using Cover = std::vector<Cube>;

/// A gate instance.  The gate's output signal id equals its index in the
/// owning Netlist, so a Gate stores only type, name and fanins.
struct Gate {
  GateType type = GateType::Buf;
  std::string name;
  std::vector<SignalId> fanins;
  Cover cover;        ///< Sop: on-cover.  Gc: set cover.
  Cover reset_cover;  ///< Gc only: reset cover.
};

/// Minimal algebra concept used by eval_gate.  Implementations exist for
/// bool (sim), two-rail ternary words (sim/ternary), and Bdd (sgraph).
///
///   V zero(), V one(), V and_(V,V), V or_(V,V), V not_(V)
///
/// eval_gate computes the *target* value of the gate: the value the gate
/// output will assume once it stabilizes with the given fanin values.  A
/// gate is excited when its current output differs from this target.
template <typename V, typename Ops>
V eval_cover(const Cover& cover, const std::vector<V>& fanin_vals,
             const Ops& ops) {
  V sum = ops.zero();
  for (const Cube& cube : cover) {
    XATPG_CHECK(cube.lits.size() == fanin_vals.size());
    V prod = ops.one();
    for (std::size_t i = 0; i < cube.lits.size(); ++i) {
      if (cube.lits[i] == 1) {
        prod = ops.and_(prod, fanin_vals[i]);
      } else if (cube.lits[i] == 0) {
        prod = ops.and_(prod, ops.not_(fanin_vals[i]));
      }
    }
    sum = ops.or_(sum, prod);
  }
  return sum;
}

template <typename V, typename Ops>
V eval_gate(const Gate& gate, const std::vector<V>& fanin_vals, const V& own,
            const Ops& ops) {
  switch (gate.type) {
    case GateType::Input:
      // The environment drives primary inputs; their target is their
      // current value (they are never excited by the circuit itself).
      return own;
    case GateType::Buf:
      XATPG_CHECK(fanin_vals.size() == 1);
      return fanin_vals[0];
    case GateType::Not:
      XATPG_CHECK(fanin_vals.size() == 1);
      return ops.not_(fanin_vals[0]);
    case GateType::And:
    case GateType::Nand: {
      V acc = ops.one();
      for (const V& v : fanin_vals) acc = ops.and_(acc, v);
      return gate.type == GateType::And ? acc : ops.not_(acc);
    }
    case GateType::Or:
    case GateType::Nor: {
      V acc = ops.zero();
      for (const V& v : fanin_vals) acc = ops.or_(acc, v);
      return gate.type == GateType::Or ? acc : ops.not_(acc);
    }
    case GateType::Xor:
    case GateType::Xnor: {
      V acc = ops.zero();
      for (const V& v : fanin_vals) {
        // a xor b = (a & !b) | (!a & b)
        acc = ops.or_(ops.and_(acc, ops.not_(v)), ops.and_(ops.not_(acc), v));
      }
      return gate.type == GateType::Xor ? acc : ops.not_(acc);
    }
    case GateType::Maj: {
      XATPG_CHECK(fanin_vals.size() == 3);
      const V& a = fanin_vals[0];
      const V& b = fanin_vals[1];
      const V& c = fanin_vals[2];
      return ops.or_(ops.or_(ops.and_(a, b), ops.and_(b, c)), ops.and_(a, c));
    }
    case GateType::Celem: {
      XATPG_CHECK(fanin_vals.size() >= 2);
      V all = ops.one();
      V any = ops.zero();
      for (const V& v : fanin_vals) {
        all = ops.and_(all, v);
        any = ops.or_(any, v);
      }
      // out' = AND(all) | own & OR(any)
      return ops.or_(all, ops.and_(own, any));
    }
    case GateType::Gc: {
      const V set = eval_cover(gate.cover, fanin_vals, ops);
      const V reset = eval_cover(gate.reset_cover, fanin_vals, ops);
      // out' = set | own & !reset
      return ops.or_(set, ops.and_(own, ops.not_(reset)));
    }
    case GateType::Sop:
      return eval_cover(gate.cover, fanin_vals, ops);
  }
  XATPG_CHECK_MSG(false, "unhandled gate type");
  return ops.zero();
}

/// Boolean algebra instance for eval_gate.
struct BoolOps {
  bool zero() const { return false; }
  bool one() const { return true; }
  bool and_(bool a, bool b) const { return a && b; }
  bool or_(bool a, bool b) const { return a || b; }
  bool not_(bool a) const { return !a; }
};

}  // namespace xatpg
