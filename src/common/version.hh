/**
 * @file
 * The simulator's code-version tag: the compatibility key for every
 * durable artifact whose numbers must not be mixed across behaviour
 * changes -- result-store objects, results documents entering a
 * merge, and persistent warm-checkpoint files.
 *
 * Bump the tag whenever a change can alter simulated numbers or
 * serialized state (new design behaviour, engine changes, schema
 * bumps). Tooling then *refuses* to merge or resume across the bump
 * instead of silently blending incompatible results. Deliberately a
 * hand-maintained constant, not a build timestamp or git hash: two
 * builds of the same source must agree on it, or byte-identical
 * shard/merge/golden comparisons would break.
 */

#ifndef UNISON_COMMON_VERSION_HH
#define UNISON_COMMON_VERSION_HH

namespace unison {

inline constexpr const char *kSimCodeVersion = "unison-sim/8";

} // namespace unison

#endif // UNISON_COMMON_VERSION_HH
