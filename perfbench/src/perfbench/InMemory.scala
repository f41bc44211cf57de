package perfbench

import repro.baselines.{BruteForce, InvIdx}
import repro.core.{HTGM, KnnResult, Les3Index, RangeResult, TGM}
import repro.data.SetGen
import repro.embed.PTREmbedder
import repro.exp.Harness
import repro.io.IOModel
import repro.partition.L2P

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

object Timing {
  /** Run `f`, adding its wall time in seconds to `layers(name)`. */
  def layer[A](layers: mutable.LinkedHashMap[String, Double], name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val r = f
    layers(name) = layers.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e9
    r
  }

  /** Median per-call milliseconds of `f` over `xs`, after one untimed pass. */
  def medianMs[A](xs: Seq[A])(f: A => Any): Double = {
    xs.foreach(f)
    val s = new Samples
    for (x <- xs) {
      val t0 = System.nanoTime()
      f(x)
      s.add((System.nanoTime() - t0) / 1e6)
    }
    s.p50
  }
}

/** Shared set-up of the in-memory workloads: generate the database, embed it
  * with PTR, partition it with the L2P cascade, then build the indexes.
  */
abstract class LearnedIndexWorkload(seed: Long) extends Workload {
  protected def nTokens: Int
  protected def generate(): Array[Array[Int]]
  protected def targetGroups: Int = Settings.groups
  /** Build the indexes over `db` from `l2p`; adds their layer times. */
  protected def buildIndexes(layers: mutable.LinkedHashMap[String, Double]): Unit
  /** Every TGM the workload built (for index size). */
  protected def matrices: Seq[TGM]

  protected var db: IndexedSeq[Array[Int]] = _
  protected var l2p: L2P.Result = _

  def setup(layers: mutable.LinkedHashMap[String, Double]): Unit = {
    db = Timing.layer(layers, "data.gen")(ArraySeq.unsafeWrapArray(generate()))
    val embedder = new PTREmbedder(nTokens)
    val reps = Timing.layer(layers, "embed.ptr")(embedder.embedAll(db))
    val cfg = Harness.l2pConfig(db.length, targetGroups, Settings.pairs, Settings.restarts)
      .copy(seed = Seeds.derive(seed, 3))
    l2p = Timing.layer(layers, "partition.l2p")(L2P.partitionWithReps(db, embedder, reps, cfg))
    buildIndexes(layers)
  }

  def setupFacts: Seq[Metric] = {
    val fine = matrices.head
    val dataBytes = db.iterator.map(s => IOModel.setBytes(s.length)).sum
    val tgmBytes = matrices.map(_.sizeBytes).sum
    Seq(
      Metric("partition.models_trained", l2p.modelsTrained, "count"),
      Metric("partition.imbalance", l2p.grouping.imbalance, "ratio"),
      Metric("partition.u_metric", (0 until fine.nGroups).map(fine.groupTokenCount).sum.toDouble, "count"),
      Metric("tgm.bytes", tgmBytes.toDouble, "B"),
      Metric("index_bytes_per_data_byte", tgmBytes.toDouble / dataBytes, "B/B"),
    )
  }

  /** The part of the query pool the reference rows run. */
  protected def refQueries: Seq[Array[Int]] = pool.toSeq.take(Settings.refQueries)
  protected var pool: Array[Array[Int]] = _

  protected def sampleQueries(count: Int): Array[Array[Int]] =
    Harness.sampleQueries(db, count, Seeds.derive(seed, 2))
}

/** KOSARAK-lite, kNN with k alternating 10 (main) and 1 (side). */
final class KnnKosarak(seed: Long) extends LearnedIndexWorkload(seed) {
  val kinds = ("knn_k10", "knn_k1")
  private val profile = SetGen.kosarakLite.copy(seed = Seeds.derive(seed, 1))
  protected def nTokens: Int = profile.nTokens
  protected def generate(): Array[Array[Int]] = SetGen.local(profile)

  private var idx: Les3Index = _
  protected def buildIndexes(layers: mutable.LinkedHashMap[String, Double]): Unit =
    idx = Timing.layer(layers, "tgm.build")(new Les3Index(db, l2p.grouping))
  protected def matrices: Seq[TGM] = Seq(idx.tgm)

  private var oracle: Array[Vector[Long]] = _
  private var last: KnnResult = _

  private def k(i: Int) = if (i % 2 == 0) 10 else 1
  private def query(i: Int) = pool((i / 2) % pool.length)

  def prepare(trace: Boolean): Unit = {
    pool = sampleQueries(Settings.queryPool)
    val brute = new BruteForce(db)
    oracle = pool.map(q => Exact.profile(brute.knn(q, 10).hits))
  }

  def warmup(): Unit = for (q <- pool; kk <- Seq(10, 1)) idx.knn(q, kk)

  def op(i: Int): Unit = last = idx.knn(query(i), k(i))

  def check(i: Int): Checked = {
    val ok = Exact.profile(last.hits) == oracle((i / 2) % pool.length).take(k(i))
    Checked(1, if (ok) 0 else 1)
  }

  def replay(i: Int, r: Replay, root: Int): Seq[OpTrace] = {
    val rep = r.knn(idx, query(i), k(i), root)
    val ok = rep.sameAs(last.stats) && Exact.profile(rep.hits) == Exact.profile(last.hits)
    Seq(OpTrace.query(rep, last.stats.peKnn(idx.nSets, k(i)), ok))
  }

  def references(): Seq[Metric] = {
    val inv = new InvIdx(db)
    val brute = new BruteForce(db)
    Seq(
      Metric("ref.invidx_ms_p50", Timing.medianMs(refQueries)(q => inv.knn(q, 10)), "ms", "InvIdx kNN k=10"),
      Metric("ref.brute_ms_p50", Timing.medianMs(refQueries)(q => brute.knn(q, 10)), "ms", "BruteForce kNN k=10"),
    )
  }
}

/** The §7.7 power-law-similarity database, range δ=0.7 through the flat TGM
  * (main) and through a two-level HTGM (side) on the same queries.
  */
final class RangePowerlaw(seed: Long) extends LearnedIndexWorkload(seed) {
  val kinds = ("range", "htgm_range")
  private val delta = 0.7
  protected def nTokens: Int = 20000
  protected def generate(): Array[Array[Int]] =
    SetGen.powerLawSim(4.0, nSets = 10000, nTokens = nTokens, setSize = 20, hotPool = 60,
                       seed = Seeds.derive(seed, 1))

  private var idx: Les3Index = _
  private var htgm: HTGM = _
  private var children: IndexedSeq[Array[Array[Int]]] = _
  protected def buildIndexes(layers: mutable.LinkedHashMap[String, Double]): Unit = {
    idx = Timing.layer(layers, "tgm.build")(new Les3Index(db, l2p.grouping))
    val coarse = l2p.levels.minBy(g => math.abs(g.nGroups - Settings.coarseGroups))
    htgm = Timing.layer(layers, "htgm.build")(HTGM.build(db, Seq(coarse, l2p.grouping)))
  }
  protected def matrices: Seq[TGM] = idx.tgm +: htgm.levelTgms.init

  private var oracle: Array[Vector[(Long, Long)]] = _
  private var last: RangeResult = _

  private def query(i: Int) = pool((i / 2) % pool.length)

  def prepare(trace: Boolean): Unit = {
    pool = sampleQueries(Settings.queryPool)
    val brute = new BruteForce(db)
    oracle = pool.map(q => Exact.rangeKeys(brute.range(q, delta).hits))
    if (trace) children = Replay.htgmChildren(htgm.levels)
  }

  def warmup(): Unit = for (q <- pool) { idx.range(q, delta); htgm.range(q, delta) }

  def op(i: Int): Unit =
    last = if (i % 2 == 0) idx.range(query(i), delta) else htgm.range(query(i), delta)

  def check(i: Int): Checked = {
    val ok = Exact.rangeKeys(last.hits) == oracle((i / 2) % pool.length)
    Checked(1, if (ok) 0 else 1)
  }

  def replay(i: Int, r: Replay, root: Int): Seq[OpTrace] = {
    val q = query(i)
    val rep = if (i % 2 == 0) r.range(idx, q, delta, root)
              else r.htgmRange(htgm, children, db, q, delta, root)
    val ok = rep.sameAs(last.stats) && Exact.rangeKeys(rep.hits) == Exact.rangeKeys(last.hits)
    Seq(OpTrace.query(rep, last.stats.peRange(db.length, last.hits.length), ok))
  }

  def references(): Seq[Metric] = {
    val inv = new InvIdx(db)
    val brute = new BruteForce(db)
    Seq(
      Metric("ref.invidx_ms_p50", Timing.medianMs(refQueries)(q => inv.range(q, delta)), "ms", "InvIdx range d=0.7"),
      Metric("ref.brute_ms_p50", Timing.medianMs(refQueries)(q => brute.range(q, delta)), "ms", "BruteForce range d=0.7"),
    )
  }
}

/** KOSARAK-lite, strictly alternating §6 inserts (main; closed- and
  * open-universe in turn) and range δ=0.9 queries (side). The DB returns to
  * its built state after every round of `Settings.insertRound` inserts, so
  * every run sees the same distribution of DB sizes however fast it is.
  */
final class InsertMix(seed: Long) extends LearnedIndexWorkload(seed) {
  val kinds = ("insert", "range")
  private val delta = 0.9
  private val profile = SetGen.kosarakLite.copy(seed = Seeds.derive(seed, 1))
  protected def nTokens: Int = profile.nTokens
  protected def generate(): Array[Array[Int]] = SetGen.local(profile)

  private var idx: Les3Index = _
  protected def buildIndexes(layers: mutable.LinkedHashMap[String, Double]): Unit =
    idx = Timing.layer(layers, "tgm.build")(new Les3Index(db, l2p.grouping))
  protected def matrices: Seq[TGM] = Seq(idx.tgm)

  private var shadow: Les3Index = _ // replay target in the traced run
  private var trace = false
  private var updates: Array[Array[Int]] = _
  private var baseHits: Array[Vector[(Long, Long)]] = _
  private val extraHits = mutable.ArrayBuffer.empty[ArrayBuffer[(Long, Long)]]
  private var lastInsert: (Int, Int) = _
  private var lastRange: RangeResult = _

  private def roundPos(i: Int) = (i / 2) % Settings.insertRound
  private def query(i: Int) = pool((i / 2) % pool.length)

  def prepare(trace: Boolean): Unit = {
    this.trace = trace
    val half = Settings.insertRound / 2
    val closed = SetGen.closedUpdates(profile, half)
    val open = SetGen.openUpdates(profile, half, 8 * half)
    updates = Array.tabulate(Settings.insertRound)(j => if (j % 2 == 0) closed(j / 2) else open(j / 2))
    pool = sampleQueries(Settings.queryPool)
    val brute = new BruteForce(db)
    baseHits = pool.map(q => Exact.rangeKeys(brute.range(q, delta).hits))
    extraHits.clear()
    pool.foreach(_ => extraHits += ArrayBuffer.empty)
    resetRound()
  }

  private def resetRound(): Unit = {
    idx = new Les3Index(db, l2p.grouping)
    if (trace) shadow = new Les3Index(db, l2p.grouping)
    extraHits.foreach(_.clear())
  }

  def warmup(): Unit = {
    val scratch = new Les3Index(db, l2p.grouping)
    for (j <- pool.indices) { scratch.insert(updates(j % updates.length)); scratch.range(pool(j), delta) }
  }

  override def beforeOp(i: Int): Unit = if (i > 0 && i % 2 == 0 && roundPos(i) == 0) resetRound()

  def op(i: Int): Unit =
    if (i % 2 == 0) lastInsert = idx.insert(updates(roundPos(i)))
    else lastRange = idx.range(query(i), delta)

  def check(i: Int): Checked = {
    val ok = if (i % 2 == 0) {
      // Brute force over the inserted set keeps the oracle equal to a scan
      // of the DB as it now stands.
      val set = updates(roundPos(i))
      val sid = lastInsert._1
      for (j <- pool.indices) {
        val sim = idx.measure.sim(pool(j), set)
        if (sim >= delta) extraHits(j) += ((sid.toLong, Exact.simKey(sim)))
      }
      sid == db.length + roundPos(i)
    } else {
      val j = (i / 2) % pool.length
      Exact.rangeKeys(lastRange.hits) == (baseHits(j) ++ extraHits(j)).sorted
    }
    Checked(1, if (ok) 0 else 1)
  }

  def replay(i: Int, r: Replay, root: Int): Seq[OpTrace] =
    if (i % 2 == 0) {
      val set = updates(roundPos(i))
      val (sid, group, probes) = r.insert(shadow, set, root)
      Seq(OpTrace.insert(probes, (sid, group) == lastInsert))
    } else {
      val rep = r.range(shadow, query(i), delta, root)
      val ok = rep.sameAs(lastRange.stats) && Exact.rangeKeys(rep.hits) == Exact.rangeKeys(lastRange.hits)
      Seq(OpTrace.query(rep, lastRange.stats.peRange(idx.nSets, lastRange.hits.length), ok))
    }

  def references(): Seq[Metric] = {
    val inv = new InvIdx(db)
    val brute = new BruteForce(db)
    Seq(
      Metric("ref.invidx_ms_p50", Timing.medianMs(refQueries)(q => inv.range(q, delta)), "ms", "InvIdx range d=0.9, built DB"),
      Metric("ref.brute_ms_p50", Timing.medianMs(refQueries)(q => brute.range(q, delta)), "ms", "BruteForce range d=0.9, built DB"),
    )
  }
}
