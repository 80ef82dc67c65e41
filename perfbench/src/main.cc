// perfbench_phase: runs one phase of the benchmark and prints its report as
// the last stdout line. run.py composes phases into workloads.
//
//   perfbench_phase offline --seed=1 --seconds=10 --trace=0 --setup_repeats=20
//   perfbench_phase spike   --seed=1 --seconds=10 --trace=0 --base_rps=1000 ...
//   perfbench_phase wire    --port=P --seed=1 --seconds=10 --rps=3000 ...
//
// Every flag is required; run.py passes the values from perfbench/spec.json.
#include <cstdio>
#include <string>

#include "perfbench/src/common.h"

int main(int argc, char** argv) {
  auto flags_result = ms::Flags::Parse(argc, argv);
  if (!flags_result.ok() || flags_result.ValueOrDie().positional().empty()) {
    std::fprintf(stderr, "usage: perfbench_phase <offline|spike|wire> "
                         "[--flag=value ...]\n");
    return 2;
  }
  const ms::Flags flags = flags_result.MoveValueOrDie();
  const std::string phase = flags.positional().front();
  if (phase == "offline") return perfbench::RunOffline(flags);
  if (phase == "spike") return perfbench::RunSpike(flags);
  if (phase == "wire") return perfbench::RunWire(flags);
  std::fprintf(stderr, "unknown phase: %s\n", phase.c_str());
  return 2;
}
