package perfbench

import repro.core.{Grouping, HTGM, Hit, Les3Index, SearchStats}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** What a replayed op did, counted where the work happens. `finestGroups`
  * is the number of groups at the level whose members get verified.
  */
final case class Replayed(hits: collection.Seq[Hit], candidates: Long, ubProbes: Long,
                          groupsRead: Int, finestGroups: Int) {
  def sameAs(s: SearchStats): Boolean =
    candidates == s.candidates && ubProbes == s.ubProbes && groupsRead == s.groupsRead
}

/** Span names of one op kind's replay: `<kind>/<layer call>`. */
final class SpanNames(t: Tracer, kind: String) {
  val ub: Int = t.id(s"$kind/tgm.ub")
  val add: Int = t.id(s"$kind/tgm.add")
  val order: Int = t.id(s"$kind/search.order")
  val verify: Int = t.id(s"$kind/verify")
}

/** Traced replays of the engine's query and insert algorithms, written
  * against the public calls of each layer (`TGM.ub`, `TGM.addSet`,
  * `SetOps.Measure.sim`, the index's `db` and `members`). Each replay
  * records a span around every call into a layer; the caller compares the
  * replay's counters with the engine's own [[SearchStats]] to prove that
  * the replay measured the same program.
  */
final class Replay(val tracer: Tracer, kind: String) {
  private val t = tracer
  val names = new SpanNames(t, kind)
  import names._

  /** Les3Index.knn, step for step. */
  def knn(idx: Les3Index, q: Array[Int], k: Int, root: Int): Replayed = {
    val tgm = idx.tgm
    val n = tgm.nGroups
    val s = t.begin(ub, root)
    val ubs = new Array[Double](n)
    var g = 0
    while (g < n) { ubs(g) = tgm.ub(q, g); g += 1 }
    t.end(s)
    val o = t.begin(order, root)
    val ord = Array.range(0, n).sortBy(g => -ubs(g))
    t.end(o)
    val heap = mutable.PriorityQueue.empty[Hit](Ordering.by(h => -h.sim))
    var candidates = 0L
    var groupsRead = 0
    var oi = 0
    var done = false
    while (oi < n && !done) {
      val gg = ord(oi)
      if (heap.size >= k && ubs(gg) <= heap.head.sim) done = true
      else if (idx.members(gg).nonEmpty) {
        val v = t.begin(verify, root)
        groupsRead += 1
        val m = idx.members(gg)
        var i = 0
        while (i < m.length) {
          val sid = m(i)
          val sim = idx.measure.sim(q, idx.db(sid))
          candidates += 1
          if (heap.size < k) heap.enqueue(Hit(sid, sim))
          else if (sim > heap.head.sim) { heap.dequeue(); heap.enqueue(Hit(sid, sim)) }
          i += 1
        }
        t.end(v)
      }
      oi += 1
    }
    Replayed(heap.dequeueAll.reverse, candidates, n.toLong * q.length, groupsRead, n)
  }

  /** Les3Index.range: the UB scan, then verification of every surviving group. */
  def range(idx: Les3Index, q: Array[Int], delta: Double, root: Int): Replayed = {
    val tgm = idx.tgm
    val n = tgm.nGroups
    val s = t.begin(ub, root)
    val ubs = new Array[Double](n)
    var g = 0
    while (g < n) { ubs(g) = tgm.ub(q, g); g += 1 }
    t.end(s)
    val hits = ArrayBuffer.empty[Hit]
    var candidates = 0L
    var groupsRead = 0
    g = 0
    while (g < n) {
      if (ubs(g) >= delta && idx.members(g).nonEmpty) {
        val v = t.begin(verify, root)
        groupsRead += 1
        val m = idx.members(g)
        var i = 0
        while (i < m.length) {
          val sid = m(i)
          val sim = idx.measure.sim(q, idx.db(sid))
          candidates += 1
          if (sim >= delta) hits += Hit(sid, sim)
          i += 1
        }
        t.end(v)
      }
      g += 1
    }
    Replayed(hits, candidates, n.toLong * q.length, groupsRead, n)
  }

  /** Les3Index.insert on `idx`: the UB scan over the set's seen tokens picks
    * the group, then the set is appended and `TGM.addSet` extends the matrix.
    * Returns (set id, group id, TGM cells probed).
    */
  def insert(idx: Les3Index, set: Array[Int], root: Int): (Int, Int, Long) = {
    val tgm = idx.tgm
    val s = t.begin(ub, root)
    val seen = set.filter(_ < tgm.nTokens)
    var best = -1
    var bestUb = -1.0
    var g = 0
    while (g < tgm.nGroups) {
      val u = if (seen.isEmpty) 0.0 else tgm.ub(seen, g)
      if (u > bestUb || (u == bestUb && (best < 0 || idx.members(g).length < idx.members(best).length))) {
        best = g; bestUb = u
      }
      g += 1
    }
    t.end(s)
    val sid = idx.db.length
    idx.db += set
    idx.members(best) += sid
    val a = t.begin(add, root)
    tgm.addSet(best, set)
    t.end(a)
    (sid, best, seen.length.toLong * tgm.nGroups)
  }

  /** HTGM.range: level by level, probe the bounds of the surviving groups'
    * children; verify the members of the surviving finest groups.
    */
  def htgmRange(h: HTGM, children: IndexedSeq[Array[Array[Int]]], db: IndexedSeq[Array[Int]],
                q: Array[Int], delta: Double, root: Int): Replayed = {
    val measure = h.levelTgms(0).measure
    val last = h.levels.length - 1
    val fineMembers = h.levels.last.members
    var ubProbes = 0L
    var candidates = 0L
    var groupsRead = 0
    val hits = ArrayBuffer.empty[Hit]
    var frontier = Array.range(0, h.levelTgms(0).nGroups)
    var level = 0
    while (level <= last) {
      val tgm = h.levelTgms(level)
      val survivors = ArrayBuffer.empty[Int]
      val s = t.begin(ub, root)
      for (g <- frontier) {
        ubProbes += q.length
        if (tgm.ub(q, g) >= delta) survivors += g
      }
      t.end(s)
      if (level == last) {
        for (g <- survivors) {
          val v = t.begin(verify, root)
          groupsRead += 1
          for (sid <- fineMembers(g)) {
            val sim = measure.sim(q, db(sid))
            candidates += 1
            if (sim >= delta) hits += Hit(sid, sim)
          }
          t.end(v)
        }
        frontier = Array.empty
      } else frontier = survivors.toArray.flatMap(children(level)(_))
      level += 1
    }
    Replayed(hits, candidates, ubProbes, groupsRead, h.levels.last.nGroups)
  }
}

object Replay {
  /** Child links between consecutive HTGM levels, derived from the public
    * level groupings exactly as `HTGM.build` derives them.
    */
  def htgmChildren(levels: Seq[Grouping]): IndexedSeq[Array[Array[Int]]] =
    levels.sliding(2).filter(_.length == 2).map { case Seq(coarse, fine) =>
      val parentOf = Array.fill(fine.nGroups)(-1)
      for (sid <- 0 until fine.nSets) parentOf(fine.assignment(sid)) = coarse.assignment(sid)
      val buckets = Array.fill(coarse.nGroups)(ArrayBuffer.empty[Int])
      for (f <- 0 until fine.nGroups if parentOf(f) >= 0) buckets(parentOf(f)) += f
      buckets.map(_.toArray)
    }.toIndexedSeq
}
