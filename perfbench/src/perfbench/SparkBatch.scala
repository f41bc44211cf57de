package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.baselines.{BruteForce, InvIdx}
import repro.core.{Hit, SetOps, SparkSearch, TGM}
import repro.data.SetGen
import repro.embed.PTREmbedder
import repro.exp.Harness
import repro.io.IOModel
import repro.partition.L2P

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** PMC-lite at `Settings.sparkSets` sets on Spark in local mode: range
  * batches (main; one query batch at δ=0.9, then the same batch at δ=0.7)
  * and kNN batches (side, k=10).
  * L2P is trained on a driver-side sample; the broadcast model assigns the
  * distributed data to groups and a DataFrame aggregation builds the TGM.
  */
final class SparkBatch(seed: Long) extends Workload {
  val kinds = ("spark_range_batch", "spark_knn_batch")
  private val k = 10
  private val cores = math.min(Settings.sparkMaxCores, Runtime.getRuntime.availableProcessors)
  // The seed draws the query batches only. The DB, the L2P training sample and
  // the L2P seed stay fixed: with a 5k-set sample, partition quality (and so
  // the candidates per query) varies more from seed to seed than the batch
  // times it is meant to compare.
  private val indexSeed = 0L
  private val profile = SetGen.pmcLite.copy(nSets = Settings.sparkSets, seed = Seeds.derive(indexSeed, 1))
  private val deltas = Seq(0.9, 0.7)

  private var spark: SparkSession = _
  private var data: DataFrame = _
  private var grouped: DataFrame = _
  private var l2p: L2P.Result = _
  private var tgm: TGM = _

  override def environment: Seq[(String, String)] = Seq(
    "spark_master" -> s"local[$cores]", "spark_cores" -> cores.toString,
    "spark_shuffle_partitions" -> Settings.shufflePartitions.toString)

  def setup(layers: mutable.LinkedHashMap[String, Double]): Unit = {
    spark = Timing.layer(layers, "spark.session") {
      val s = SparkSession.builder()
        .master(s"local[$cores]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.sql.shuffle.partitions", Settings.shufflePartitions.toString)
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
      s.sparkContext.setLogLevel("ERROR")
      s
    }
    val sample = Timing.layer(layers, "data.gen") {
      data = SetGen.toDF(spark, profile).cache()
      data.count()
      val rnd = new Random(Seeds.derive(indexSeed, 4))
      ArraySeq.fill(Settings.sparkSample)(SetGen.generate(profile, rnd.nextInt(profile.nSets).toLong))
    }
    val embedder = new PTREmbedder(profile.nTokens)
    val reps = Timing.layer(layers, "embed.ptr")(embedder.embedAll(sample))
    val cfg = Harness.l2pConfig(sample.length, Settings.sparkGroups, Settings.pairs, Settings.restarts)
      .copy(seed = Seeds.derive(indexSeed, 3))
    l2p = Timing.layer(layers, "partition.l2p")(L2P.partitionWithReps(sample, embedder, reps, cfg))
    grouped = Timing.layer(layers, "spark.assign") {
      val g = SparkSearch.assignGroups(data, l2p.model).cache()
      g.count()
      g
    }
    tgm = Timing.layer(layers, "spark.tgm_agg")(SparkSearch.buildTGM(grouped, l2p.model.nGroups))
  }

  override def teardown(): Unit = close()

  override def close(): Unit = if (spark != null) { spark.stop(); spark = null }

  // ---- queries, oracle and local mirror for the replay ----
  private var localDb: IndexedSeq[Array[Int]] = _
  private var rangeQs: Array[(Long, Array[Int])] = _
  private var knnQs: Array[(Long, Array[Int])] = _
  private var rangeDf: DataFrame = _
  private var rangeOracle: Array[collection.Seq[Hit]] = _ // hits with sim >= 0.7
  private var knnOracle: Array[Vector[Long]] = _
  private var members: Array[Array[Int]] = _
  private var lastRange: Seq[Array[Row]] = _
  private var lastKnn: Map[Long, Array[Hit]] = _

  def prepare(trace: Boolean): Unit = {
    localDb = ArraySeq.unsafeWrapArray(SetGen.local(profile))
    val rnd = new Random(Seeds.derive(seed, 2))
    def draw(n: Int) = Array.tabulate(n)(q => (q.toLong, localDb(rnd.nextInt(localDb.length))))
    rangeQs = draw(Settings.rangeBatch)
    knnQs = draw(Settings.knnBatch)
    val s = spark
    import s.implicits._
    rangeDf = rangeQs.toSeq.toDF("qid", "tokens")
    val brute = new BruteForce(localDb)
    rangeOracle = rangeQs.map { case (_, q) => brute.range(q, 0.7).hits }
    knnOracle = knnQs.map { case (_, q) => Exact.profile(brute.knn(q, k).hits) }
    if (trace) {
      val assignment = localDb.map(l2p.model.assign)
      val buckets = Array.fill(tgm.nGroups)(ArrayBuffer.empty[Int])
      for (sid <- localDb.indices) buckets(assignment(sid)) += sid
      members = buckets.map(_.toArray)
    }
  }

  def setupFacts: Seq[Metric] = {
    val sizes = tgm.groupSizes
    val dataBytes = localDb.iterator.map(s => IOModel.setBytes(s.length)).sum
    Seq(
      Metric("partition.models_trained", l2p.modelsTrained, "count"),
      Metric("partition.imbalance", sizes.max.toDouble / (sizes.sum.toDouble / sizes.length), "ratio"),
      Metric("partition.u_metric", (0 until tgm.nGroups).map(tgm.groupTokenCount).sum.toDouble, "count"),
      Metric("tgm.bytes", tgm.sizeBytes.toDouble, "B"),
      Metric("index_bytes_per_data_byte", tgm.sizeBytes.toDouble / dataBytes, "B/B"))
  }

  private def rangeBatch(d: Double): Array[Row] =
    SparkSearch.rangeSearch(grouped, rangeDf, tgm, d).collect()
  private def knnBatch(): Map[Long, Array[Hit]] = SparkSearch.knnSearch(grouped, knnQs, tgm, k)

  def warmup(): Unit = { deltas.foreach(rangeBatch); knnBatch() }
  // Batch times keep falling for several batches while Spark's generated
  // code and the UDF paths get compiled.
  override def warmupSeconds: Double = 8.0

  override def minOpsPerKind: Int = 2
  override def opsIn(i: Int): Int = if (i % 2 == 0) deltas.length * rangeQs.length else knnQs.length

  def op(i: Int): Unit =
    if (i % 2 == 0) lastRange = deltas.map(rangeBatch) else lastKnn = knnBatch()

  private def rangeGot(rows: Array[Row]): Map[Long, Vector[(Long, Long)]] =
    rows.groupBy(_.getLong(0)).map { case (qid, rows) =>
      qid -> rows.map(r => (r.getLong(1), Exact.simKey(r.getDouble(2)))).toVector.sorted
    }

  def check(i: Int): Checked =
    if (i % 2 == 0) {
      val bad = deltas.zip(lastRange).map { case (d, rows) =>
        val got = rangeGot(rows)
        rangeQs.indices.count { q =>
          got.getOrElse(q.toLong, Vector.empty) != Exact.rangeKeys(rangeOracle(q).filter(_.sim >= d))
        }
      }.sum
      Checked(deltas.length * rangeQs.length, bad)
    } else {
      val bad = knnQs.indices.count { q =>
        Exact.profile(lastKnn.getOrElse(q.toLong, Array.empty[Hit]).toSeq) != knnOracle(q)
      }
      Checked(knnQs.length, bad)
    }

  /** Driver-side replay of one batch against the local mirror of the
    * grouped data: the pruning UDF's UB scan, then the verification of the
    * (query, group) pairs the join would produce. Its answers must equal
    * the answers Spark returned.
    */
  def replay(i: Int, r: Replay, root: Int): Seq[OpTrace] = {
    val t = r.tracer
    val nSets = localDb.length
    if (i % 2 == 0) deltas.zip(lastRange).flatMap { case (d, rows) =>
      val got = rangeGot(rows)
      rangeQs.toSeq.map { case (qid, q) =>
        val s = t.begin(r.names.ub, root)
        var probes = 0L
        val cand = (0 until tgm.nGroups).filter { g =>
          tgm.groupSize(g) > 0 && { probes += q.length; tgm.ub(q, g) >= d }
        }
        t.end(s)
        val hits = ArrayBuffer.empty[Hit]
        var candidates = 0L
        for (g <- cand) {
          val v = t.begin(r.names.verify, root)
          for (sid <- members(g)) {
            val sim = SetOps.jaccard(q, localDb(sid))
            candidates += 1
            if (sim >= d) hits += Hit(sid, sim)
          }
          t.end(v)
        }
        val rep = Replayed(hits, candidates, probes, cand.length, tgm.nGroups)
        val ok = Exact.rangeKeys(hits) == got.getOrElse(qid, Vector.empty)
        OpTrace.query(rep, (nSets - (candidates - hits.length).toDouble) / nSets, ok)
      }
    } else knnQs.toSeq.map { case (qid, q) =>
      val rep = replayKnn(q, r, root)
      val ok = Exact.profile(rep.hits) == Exact.profile(lastKnn.getOrElse(qid, Array.empty[Hit]).toSeq)
      OpTrace.query(rep, (nSets - (rep.candidates - math.min(k, nSets)).toDouble) / nSets, ok)
    }
  }

  /** SparkSearch.knnSearch for one query: phase 1 verifies the top-UB groups
    * covering at least 3k sets, phase 2 every other group whose bound beats
    * the kth-best similarity found.
    */
  private def replayKnn(q: Array[Int], r: Replay, root: Int): Replayed = {
    val t = r.tracer
    val s = t.begin(r.names.ub, root)
    val ubs = Array.tabulate(tgm.nGroups)(g => tgm.ub(q, g))
    t.end(s)
    val o = t.begin(r.names.order, root)
    val order = Array.range(0, tgm.nGroups).sortBy(g => -ubs(g))
    var covered = 0
    val phase1 = ArrayBuffer.empty[Int]
    for (g <- order if covered < 3L * k && tgm.groupSize(g) > 0) { phase1 += g; covered += tgm.groupSize(g) }
    t.end(o)
    var candidates = 0L
    def verify(groups: Seq[Int]): Seq[Hit] = groups.flatMap { g =>
      val v = t.begin(r.names.verify, root)
      val hs = members(g).toSeq.map { sid => candidates += 1; Hit(sid, SetOps.jaccard(q, localDb(sid))) }
      t.end(v)
      hs
    }
    def topK(hs: Seq[Hit]) = hs.sortBy(-_.sim).take(k)
    val hits1 = verify(phase1.toSeq)
    val lambda = if (hits1.size >= k) topK(hits1).last.sim else -1.0
    val chosen = phase1.toSet
    val phase2 = (0 until tgm.nGroups).filter { g =>
      !chosen.contains(g) && tgm.groupSize(g) > 0 && (hits1.size < k || ubs(g) > lambda)
    }
    val hits2 = verify(phase2)
    Replayed(topK(hits1 ++ hits2), candidates, tgm.nGroups.toLong * q.length,
             phase1.length + phase2.length, tgm.nGroups)
  }

  def references(): Seq[Metric] = {
    val inv = new InvIdx(localDb)
    val brute = new BruteForce(localDb)
    val qs = rangeQs.toSeq.map(_._2)
    Seq(
      Metric("ref.invidx_ms_p50", Timing.medianMs(qs)(q => inv.range(q, 0.7)), "ms", "InvIdx range d=0.7 per query, local"),
      Metric("ref.brute_ms_p50", Timing.medianMs(qs)(q => brute.range(q, 0.7)), "ms", "BruteForce range d=0.7 per query, local"))
  }
}
