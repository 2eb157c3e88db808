// megabench: the unified paper-figure bench driver, one binary for every
// figure of the paper's evaluation:
//
//   megabench --fig=1                       Figure 1 count timelines
//   megabench --fig=7        (or --query=3) NEXMark Q3 timelines
//   megabench --fig=5 --processes=2 --workers=2 --records=20000
//                                           distributed run over the TCP
//                                           mesh, merged JSON report
//   megabench --steady --out=steady.json    closed-loop throughput suite
//
// See --help for the full flag surface and README "Reproducing the
// figures" for the JSON report schema.
#include "harness/bench_driver.hpp"

int main(int argc, char** argv) {
  return megaphone::BenchDriverMain(argc, argv);
}
