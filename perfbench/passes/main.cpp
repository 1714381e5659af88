// perfbench_passes: the subcommands run.py drives. Usage:
//
//   perfbench_passes rep|trace --workload W --seed S --work DIR
//                    [--template STORE] [--ref FILE] [--out FILE]
//                    [--threads 0|1]
//   perfbench_passes populate --seed S --work DIR
//   perfbench_passes reference --workload paper|serve_ci --seed S
//                    --out FILE [--threads 0|1]
//
// Every subcommand prints one JSON object as its last stdout line.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "passes.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s rep|trace|populate|reference ...\n",
                 argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  perfbench::Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--work") {
      o.work = value;
    } else if (flag == "--template") {
      o.store_template = value;
    } else if (flag == "--ref") {
      o.ref = value;
    } else if (flag == "--out") {
      o.out = value;
    } else if (flag == "--threads") {
      o.threads = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], flag.c_str());
      return 2;
    }
  }
  if (command == "rep") return perfbench::run_rep(o);
  if (command == "trace") return perfbench::run_trace(o);
  if (command == "populate") return perfbench::run_populate(o);
  if (command == "reference") return perfbench::run_reference(o);
  std::fprintf(stderr, "%s: unknown command %s\n", argv[0], command.c_str());
  return 2;
}
