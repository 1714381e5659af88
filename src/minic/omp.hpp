#pragma once
// OpenMP directive parsing and validation. Directives are first-class in
// the benchmark: both translation pairs targeting OpenMP offload hinge on
// `target`/`teams`/`distribute`/`parallel for` composition and `map`
// clauses, and "OpenMP Invalid Directive" is one of Figure 3's categories.

#include <optional>
#include <string>
#include <vector>

#include "minic/diag.hpp"
#include "minic/sym.hpp"

namespace pareval::minic {

enum class OmpConstruct {
  Parallel,
  For,
  Simd,
  Target,
  TargetData,
  TargetEnterData,
  TargetExitData,
  TargetUpdate,
  Teams,
  Distribute,
  Single,
  Critical,
  Barrier,
  Atomic,
  Declare,  // declare target (accepted, no-op)
  End,      // end declare target
};

enum class OmpMapType { To, From, ToFrom, Alloc };

/// One clause, e.g. map(to: x[0:n]), collapse(2), reduction(+:sum).
struct OmpClause {
  std::string name;                 // "map", "collapse", "reduction", ...
  std::optional<OmpMapType> map_type;  // for map
  std::string reduction_op;         // for reduction: "+", "*", "max", ...
  std::vector<std::string> vars;    // variable names listed in the clause
  std::vector<Sym> var_syms;        // `vars` interned by sema, same order
  std::string raw_args;             // unparsed argument text
  long long int_arg = 0;            // for collapse/num_threads/...

  bool operator==(const OmpClause&) const = default;
};

struct OmpDirective {
  std::vector<OmpConstruct> constructs;  // in source order
  std::vector<OmpClause> clauses;
  std::string raw;  // directive text after "omp", for logs
  int line = 0;

  bool has(OmpConstruct c) const;
  const OmpClause* find_clause(const std::string& name) const;
  /// collapse(n) value, default 1.
  int collapse() const;
};

/// Parse the text after "#pragma omp". Unknown construct names or malformed
/// clauses produce OmpInvalidDirective errors in `diags` (matching clang's
/// behaviour for e.g. "parallel forx" or "map(frm: x)").
std::optional<OmpDirective> parse_omp_directive(const std::string& text,
                                                int line,
                                                const std::string& file,
                                                DiagBag& diags);

/// Validate clause/construct compatibility. Invalid combinations that real
/// compilers reject (e.g. `distribute` with no enclosing/leading `teams`)
/// are errors; merely dubious ones (num_threads on a teams-only construct)
/// warn, matching the lenient behaviour the paper's Listing 4 relied on.
void validate_omp_directive(const OmpDirective& d, const std::string& file,
                            DiagBag& diags);

}  // namespace pareval::minic
