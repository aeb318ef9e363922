/**
 * @file
 * Deterministic partitioning of a sweep grid across shards.
 *
 * A ShardSpec names one shard of N ("i/N" addressing); a ShardPlan
 * maps every shard to the set of flat grid indices it owns. The
 * assignment is a pure function of (grid size, shard count, layout) -
 * never of execution timing or host identity - so any process
 * anywhere can compute which points shard i runs, and the union over
 * all shards is exactly [0, gridSize) with no overlap.
 *
 * Two layouts are offered:
 *  - Strided (the default of every front end: sbn_sweep, sbn_sweepd
 *    job specs, the bench binaries' --shard-layout): shard i gets
 *    indices i, i+N, i+2N, ... Point cost grows along the grid
 *    order (n, the outermost axis, and p dominate it), so a stride
 *    gives every shard a sample of the whole range and a fleet's
 *    slowest worker finishes close to the mean. Aliasing: shard i
 *    sees only the innermost-axis positions congruent to i modulo
 *    gcd(N, L), L that axis's length - one value when L divides N
 *    (4 shards over --buffered=0,1: shards 0 and 2 run unbuffered
 *    points only), a fixed 1/N of the axis when N divides L.
 *  - Contiguous: balanced consecutive ranges (shard i of N gets
 *    ~gridSize/N adjacent indices; the first gridSize%N shards get
 *    one extra). On the paper's grids the last shard holds the
 *    largest n and is the slowest.
 *
 * The layout is part of a shard file's identity: a resume under the
 * other layout drops the records its shard no longer owns (with a
 * warning) and recomputes them; merged bytes are the same either way.
 *
 * Per-point seed derivation lives in the point configs themselves
 * (each materialized point carries its own config.seed), so a shard
 * computes exactly the replications the single-process run would -
 * the partition only chooses *where* a point runs, never *what* it
 * computes.
 */

#ifndef SBN_SHARD_PLAN_HH
#define SBN_SHARD_PLAN_HH

#include <cstddef>
#include <string>
#include <vector>

namespace sbn {

/** How a ShardPlan lays grid indices onto shards. */
enum class ShardLayout
{
    Contiguous,
    Strided,
};

/** Parse "contiguous" / "strided"; fatal on anything else. */
ShardLayout parseShardLayout(const std::string &text);

/** Canonical name of a layout ("contiguous" / "strided"). */
const char *shardLayoutName(ShardLayout layout);

/** One shard of N, in "i/N" addressing (i is 0-based, i < N). */
struct ShardSpec
{
    std::size_t index = 0;
    std::size_t count = 1;

    /**
     * Parse the "i/N" form (e.g. "2/4"). Fatal with a diagnostic on
     * malformed text, N == 0 or i >= N.
     */
    static ShardSpec parse(const std::string &text);

    /** Render back to the canonical "i/N" form. */
    std::string toString() const;
};

/**
 * The full deterministic assignment of a gridSize-point sweep to
 * shardCount shards under a layout.
 */
class ShardPlan
{
  public:
    /** @param shard_count number of shards (>= 1). */
    ShardPlan(std::size_t grid_size, std::size_t shard_count,
              ShardLayout layout);

    std::size_t gridSize() const { return gridSize_; }
    std::size_t shardCount() const { return shardCount_; }
    ShardLayout layout() const { return layout_; }

    /** Number of points shard @p shard owns. */
    std::size_t shardSize(std::size_t shard) const;

    /**
     * The flat grid indices shard @p shard owns, strictly increasing:
     * the index list runOwnedShard() hands its record step
     * (shard/runner.hh).
     */
    std::vector<std::size_t> indices(std::size_t shard) const;

    /** Which shard owns flat index @p index. */
    std::size_t owner(std::size_t index) const;

  private:
    std::size_t gridSize_;
    std::size_t shardCount_;
    ShardLayout layout_;
};

} // namespace sbn

#endif // SBN_SHARD_PLAN_HH
