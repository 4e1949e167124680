// Classification of symbolic subscript expressions into IndexFn shapes.
//
// This is the compile-time analysis the paper relies on when it says an
// index propagation function "has the form f(i) = a.i + c" etc.: given the
// Sym tree of a subscript, recognize the strongest class Table I can
// optimize. Structural rules (conservative, never wrong):
//
//   constants/variable .......... exact linear form a*i + c
//   +, -, * by constants ........ stay linear
//   linear mod constant (+ c) ... (a*i + c) mod z + d      (Section 3.3)
//   linear div constant ......... weakly monotone
//   sums/products of compatible
//   monotone terms .............. monotone (possibly only for i >= 0)
//   anything else ............... opaque (run-time resolution)
#pragma once

#include "fn/index_fn.hpp"
#include "fn/sym.hpp"

namespace vcal::fn {

/// Returns the strongest IndexFn classification for `s`. The returned
/// function evaluates identically to eval(s, i) for all i (monotone and
/// opaque results keep a reference to the tree).
IndexFn classify(const SymPtr& s);

/// True when evaluating `s` at some i in [lo, hi] may leave i64 (or hit
/// an operand the checked helpers cannot take), either as the tree
/// (eval) or as the closed form a*i + c [mod z + d] that clause kernels
/// evaluate for Affine and AffineMod subscripts. Interval bounds: it may
/// reject a tree whose bounds are loose, never accepts one that
/// overflows.
bool may_overflow(const SymPtr& s, i64 lo, i64 hi);

}  // namespace vcal::fn
