package perfbench

import repro.core.Hit

import scala.collection.mutable

/** Correctness outcome of one timed op: how many answers it produced that
  * could be checked, and how many of them differ from the oracle.
  */
final case class Checked(attempted: Int, failed: Int)

/** Counters of one replayed query or insert. `matched` is false when the
  * replay disagrees with the engine (stats or results).
  */
final case class OpTrace(query: Boolean, candidates: Long, hits: Long, groupsRead: Long,
                         finestGroups: Long, ubProbes: Long, pe: Double, matched: Boolean)

object OpTrace {
  def query(r: Replayed, pe: Double, matched: Boolean): OpTrace =
    OpTrace(query = true, r.candidates, r.hits.length, r.groupsRead, r.finestGroups,
            r.ubProbes, pe, matched)
  def insert(ubProbes: Long, matched: Boolean): OpTrace =
    OpTrace(query = false, 0, 0, 0, 0, ubProbes, 0.0, matched)
}

/** One benchmark workload: a closed loop with a single client that issues
  * two kinds of op in strict alternation (even op ids are the main kind,
  * odd ones the side kind).
  */
trait Workload {
  /** Labels of the main and side op kinds, used in printed metric names. */
  def kinds: (String, String)
  /** One full set-up from input generation to a query-ready index. Adds the
    * seconds spent in each layer to `layers`.
    */
  def setup(layers: mutable.LinkedHashMap[String, Double]): Unit
  /** Untimed: release what a set-up built before the next one. */
  def teardown(): Unit = ()
  /** Facts about the index the last set-up built. */
  def setupFacts: Seq[Metric]
  /** Untimed: oracles and any extra state the checks and replays need. */
  def prepare(trace: Boolean): Unit
  /** Untimed warm-up: each op kind at least once through its whole path. */
  def warmup(): Unit
  /** Warm-up passes repeat for at least this long. */
  def warmupSeconds: Double = 3.0
  /** Untimed hook before op `i` (e.g. resetting an insert round). */
  def beforeOp(i: Int): Unit = ()
  /** The timed op. */
  def op(i: Int): Unit
  /** Ops of each kind a run makes even past its deadline. */
  def minOpsPerKind: Int = 1
  /** Queries and inserts completed by op `i`. */
  def opsIn(i: Int): Int = 1
  /** Untimed: compare op `i`'s answer with the oracle. */
  def check(i: Int): Checked
  /** Traced replay of op `i` under span `root`. */
  def replay(i: Int, r: Replay, root: Int): Seq[OpTrace]
  /** Untimed reference rows on the same query stream (traced run only). */
  def references(): Seq[Metric]
  def environment: Seq[(String, String)] = Seq("spark_master" -> "none")
  def close(): Unit = ()
}

/** Exactness keys: a hit is its set id plus its similarity to 1e-9. */
object Exact {
  def simKey(sim: Double): Long = math.round(sim * 1e9)
  def rangeKeys(hits: Iterable[Hit]): Vector[(Long, Long)] =
    hits.iterator.map(h => (h.sid.toLong, simKey(h.sim))).toVector.sorted
  /** kNN answers are compared by similarity profile (ties are interchangeable). */
  def profile(hits: Iterable[Hit]): Vector[Long] =
    hits.iterator.map(h => simKey(h.sim)).toVector.sorted(Ordering[Long].reverse)
}

object Seeds {
  /** SplitMix64 mix of the run seed with a per-purpose salt. */
  def derive(seed: Long, salt: Long): Long = {
    var z = seed * 0x9e3779b97f4a7c15L + salt * 0xd1b54a32d192ed03L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    (z ^ (z >>> 31)) & 0x7fffffffL
  }
}
