#pragma once
// The pass runner's subcommands. Each runs in its own process, so no pass
// inherits another's warm process state, and each prints one JSON object
// as its last stdout line for run.py to read.

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;  // paper_cold | paper_warm | reference_execute |
                         // serve_ci (reference: paper | serve_ci)
  std::uint64_t seed = 0;
  std::string work;      // working directory of this pass
  std::string store_template;  // populated store to copy; "" = empty
  std::string ref;       // reference digests to check against
  std::string out;       // output file (reference, spans)
  /// 0 = the program's pool (sized by the machine), 1 = serial: run_sweep
  /// with threads = 1, one engine run at a time, and for serve_ci one
  /// client against a server that dispatches one unit at a time.
  unsigned threads = 0;
};

/// Fill a store with one cold paper sweep (paper_warm's set-up).
int run_populate(const Options& o);
/// Compute reference digests on the uncached path and write them to o.out.
int run_reference(const Options& o);
/// One untraced repetition of a workload.
int run_rep(const Options& o);
/// One traced serial repetition; writes its spans to o.out.
int run_trace(const Options& o);

}  // namespace perfbench
