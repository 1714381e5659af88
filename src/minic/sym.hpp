#pragma once
// Interned identifier symbols. Semantic analysis resolves every name a
// run looks up as a variable (identifiers, callee names, declarations,
// parameters, OpenMP clause variables) to a `Sym` once; the runtime
// (minic/machine.hpp) then binds and finds variables by comparing
// integers, never strings.
//
// The interner is process-wide and append-only: a spelling maps to one id
// for the life of the process, so ASTs compiled on different threads,
// decoded from the object store, and the bytecode chunks compiled from
// them all agree. Ids past the reserved ones are handed out in
// first-intern order, which depends on thread scheduling: nothing
// observable may depend on their numeric order, only on equality.
// Interning happens at sema and decode time only, never during a run.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pareval::minic {

using Sym = std::uint32_t;

/// Fixed ids. The order inside each group is the spelling table in
/// sym.cpp; Machine::ident_value switches on these.
enum : Sym {
  kNoSym = 0,  // an unresolved name; never equal to an interned one
  // CUDA thread coordinates: resolved before declared variables.
  kSymThreadIdx,
  kSymBlockIdx,
  kSymBlockDim,
  kSymGridDim,
  // Runtime constants: resolved after declared variables.
  kSymCudaMemcpyHostToHost,
  kSymCudaMemcpyHostToDevice,
  kSymCudaMemcpyDeviceToHost,
  kSymCudaMemcpyDeviceToDevice,
  kSymCudaSuccess,
  kSymRandMax,
  kSymIntMax,
  kSymDblMax,
  kSymFltMax,
  kSymMPi,
  kSymStderr,
  kSymStdout,
  kSymExitSuccess,
  kSymExitFailure,
  kSymNull,
  kNumReservedSyms,
};

inline bool is_coordinate_sym(Sym s) {
  return s >= kSymThreadIdx && s <= kSymGridDim;
}
inline bool is_constant_sym(Sym s) {
  return s >= kSymCudaMemcpyHostToHost && s < kNumReservedSyms;
}

/// The symbol for `name`, interned on first sight. Thread-safe: a known
/// name costs one shared-lock lookup, so concurrent compiles never
/// serialise on each other.
Sym intern(std::string_view name);

/// How many symbols the process has interned, the reserved ones included.
/// Grows only with new spellings; a run interns nothing.
std::size_t interned_symbols();

}  // namespace pareval::minic
