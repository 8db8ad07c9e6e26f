// Package core implements Fg-STP — Fine-Grain Single-Thread
// Partitioning — the primary contribution of the reproduced paper
// (Ranjan, Latorre, Marcuello, González; HPCA 2011).
//
// Fg-STP reconfigures two conventional out-of-order cores to execute
// one thread cooperatively. A dedicated, localized hardware layer
// orchestrates them:
//
//   - A global sequencer fetches the instruction stream ahead of
//     execution over a large lookahead window, using both cores'
//     I-caches cooperatively and a shared branch predictor.
//   - A steering unit partitions the stream at instruction granularity:
//     each instruction is assigned the core that already holds most of
//     its input values (dependence affinity), tie-broken toward the
//     less-loaded core.
//   - A replication policy duplicates cheap register-only instructions
//     whose inputs are available on both cores (immediates, address
//     arithmetic, loop counters), so their consumers never pay
//     communication latency.
//   - Register values crossing cores travel through bounded
//     point-to-point channels with configurable latency, bandwidth and
//     queue capacity.
//   - Memory dependences across cores are speculated: loads bypass
//     older remote stores with unresolved addresses unless a load-wait
//     table predicts a conflict; violations squash both cores from the
//     offending load and train the table.
//   - Commit is globally in order across both cores, preserving
//     single-thread architectural semantics.
//
// The package builds on the substrates: internal/ooo provides the core
// pipelines (run with external front ends), internal/mem the shared-L2
// memory system, internal/bpred the sequencer's predictor, and
// internal/ooo's drain loop runs the machine. Entry point: NewMachine,
// then Drain (or Cycle, for instrumented use); Restore starts the
// machine from a checkpoint.
package core
