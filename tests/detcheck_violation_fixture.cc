/**
 * @file
 * Deliberate determinism violations — NOT part of any normal build.
 *
 * This TU exists to prove the `scan` lane's gate is live: it is
 * compiled only when CMake is configured with
 * -DCASCADE_SEED_DET_VIOLATION=ON, which puts it into
 * compile_commands.json where the reachability rules of
 * tools/lint_cascade.py pick it up (the call graph spans src/ plus
 * any *violation_fixture* TU in the database). The code is valid C++
 * and builds everywhere — the violations are *determinism* bugs,
 * invisible to the compiler — but the checker MUST flag them.
 * tools/scan.sh (CI's scan lane) runs `lint_cascade.py -p build-scan`
 * against a database seeded with this TU and asserts the nonzero
 * exit; if the checker ever passes it, it has been silently broken
 * and the static half of the bit-identity contract is dead weight.
 *
 * Keep exactly one violation per function so the expected findings
 * stay enumerable:
 *   1. drawUnseeded    — nondet-call: libc rand() on a trajectory path
 *   2. foldHashOrder   — unordered-iteration: float += over hash-bucket
 *                        order
 */

#include <cstdlib>
#include <unordered_map>

#include "util/determinism.hh"

namespace cascade {
namespace detcheck_fixture {

std::unordered_map<int, float> weights_;

int drawUnseeded();
float foldHashOrder();

/** Marked root: everything below is trajectory-reachable. */
CASCADE_TRAJECTORY
float
fixtureStepRoot()
{
    return static_cast<float>(drawUnseeded()) + foldHashOrder();
}

int
drawUnseeded()
{
    return rand(); // finding: nondet-call
}

float
foldHashOrder()
{
    float s = 0.0f;
    for (const auto &kv : weights_) // finding: unordered-iteration
        s += kv.second;
    return s;
}

} // namespace detcheck_fixture
} // namespace cascade
