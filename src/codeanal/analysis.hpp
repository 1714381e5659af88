#pragma once
// Per-content analysis memo. The generation-side readers of a file's
// structure (the chunk agent, the include-dependency agent and the defect
// injectors) only ever see fixed inputs: the shipped source repos and the
// pre-defect reference translations. Each distinct content is lexed and
// analysed once per process and shared, read-only, across pool threads.

#include <cstdint>
#include <string_view>
#include <vector>

#include "codeanal/functions.hpp"
#include "codeanal/includes.hpp"

namespace pareval::codeanal {

/// What generation needs of one file: no token stream is kept. The token
/// indices inside each FunctionSpan refer to lex(source).tokens.
struct Analysis {
  std::vector<FunctionSpan> functions;  // find_functions over the tokens
  std::vector<IncludeRef> includes;     // every #include, in source order
};

/// The analysis of `source`. Computed once per distinct content (the key
/// is the content itself, so a hash collision never aliases two files)
/// and never evicted: call it only on fixed inputs, never on per-sample
/// mutated text, or the memo grows with the sweep. The reference stays
/// valid for the life of the process.
const Analysis& analyse(std::string_view source);

/// Process-wide number of analyses computed so far (memo misses).
std::uint64_t analysis_runs();

}  // namespace pareval::codeanal
