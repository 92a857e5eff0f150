// bdio_repro: reproduces the paper's results — Table 3, Figures 1-12 and
// Tables 5-7 — from one grid of 20 simulations (five factor settings x four
// workloads), printing every section with its shape checks in paper order.
// Takes the common bench flags (--help); the exit code is the total number
// of failed shape checks.

#include "bench/repro.h"

int main(int argc, char** argv) {
  return bdio::bench::RunPaper(bdio::core::BenchOptions::Parse(argc, argv));
}
