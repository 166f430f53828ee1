// The benchmark's own test: span nesting and self-time arithmetic, layer
// coverage of a traced repetition, decode-check counting against the
// registry, and byte-identity of traced and untraced repetitions.
#pragma once

namespace perfbench {

/// Runs every check on small inputs, prints one PASS/FAIL line per check,
/// and returns 0 when all pass.
int run_self_test();

}  // namespace perfbench
