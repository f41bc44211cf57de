package perfbench

import java.nio.file.{Files, Path, Paths, StandardOpenOption}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Sizes and budgets shared by the workloads. */
object Settings {
  /** Set-ups per run; `setup_s` is their median. */
  val setupReps = 3
  /** L2P target group count (n) of the in-memory workloads. */
  val groups = 128
  /** Coarse HTGM level of range-powerlaw: the cascade level nearest this. */
  val coarseGroups = 16
  /** L2P training budget: Siamese pairs per split and restarts. */
  val pairs = 2000
  val restarts = 1
  /** Distinct queries per run; the query stream cycles through them. */
  val queryPool = 2000
  /** Pool queries the reference rows (InvIdx, BruteForce) run. */
  val refQueries = 400
  /** Inserts per insert-mix round; the DB is reset after each round. */
  val insertRound = 2000
  // spark-batch
  val sparkSets = 50000
  val sparkSample = 5000
  val sparkGroups = 64
  val sparkMaxCores = 4
  val shufflePartitions = 8
  val rangeBatch = 50
  val knnBatch = 20
}

final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Path)

object Main {
  val workloads = Seq("knn-kosarak", "range-powerlaw", "insert-mix", "spark-batch")

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toInt,
      trace = need("trace") == "1",
      out = Paths.get(need("out")))
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    require(workloads.contains(a.workload), s"unknown workload ${a.workload}; one of ${workloads.mkString(", ")}")
    require(a.seconds >= 1, "--seconds must be at least 1")
    val w: Workload = a.workload match {
      case "knn-kosarak" => new KnnKosarak(a.seed)
      case "range-powerlaw" => new RangePowerlaw(a.seed)
      case "insert-mix" => new InsertMix(a.seed)
      case "spark-batch" => new SparkBatch(a.seed)
    }
    val res = try Runner.run(w, a) finally w.close()
    val env = Seq(
      "workload" -> a.workload, "seed" -> a.seed.toString, "trace" -> (if (a.trace) "1" else "0"),
      "seconds" -> a.seconds.toString,
      "jvm_xmx_mb" -> f"${Jvm.maxHeapMb}%.0f", "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "java" -> System.getProperty("java.version")) ++ w.environment

    for (m <- res.table) println(f"metric  ${m.name}%-34s ${m.value}%14.6f  ${m.unit}%-6s ${m.note}")
    println("env     " + Json.obj(env.map { case (k, v) => k -> Json.str(v) }))
    Files.createDirectories(a.out)
    Files.writeString(a.out.resolve("rows.jsonl"),
      Json.obj(Seq("env" -> Json.obj(env.map { case (k, v) => k -> Json.str(v) }),
                   "correct" -> res.correct.toString,
                   "metrics" -> Json.metrics(res.table))) + "\n",
      StandardOpenOption.CREATE, StandardOpenOption.APPEND)
    println(Json.obj(Seq(
      "correct" -> res.correct.toString,
      "attempted" -> res.attempted.toString,
      "failed" -> res.failed.toString,
      "metrics" -> Json.metrics(res.metrics))))
  }
}

object Json {
  def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def metrics(ms: Seq[Metric]): String = obj(ms.map { m =>
    require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is not a finite number")
    m.name -> obj(Seq("value" -> m.value.toString, "unit" -> str(m.unit)))
  })
}

/** The closed loop: set-up several times, warm up, then issue ops for the
  * given seconds, checking every op against its oracle outside the timed
  * region. The traced run also replays every op under spans.
  */
object Runner {
  final case class Result(correct: Boolean, attempted: Long, failed: Long,
                          metrics: Seq[Metric], table: Seq[Metric])

  def run(w: Workload, a: Args): Result = {
    val runStart = System.nanoTime()
    val totals = ArrayBuffer.empty[Double]
    val layerRuns = ArrayBuffer.empty[mutable.LinkedHashMap[String, Double]]
    for (rep <- 0 until Settings.setupReps) {
      if (rep > 0) w.teardown()
      val layers = mutable.LinkedHashMap.empty[String, Double]
      val t0 = System.nanoTime()
      w.setup(layers)
      totals += (System.nanoTime() - t0) / 1e9
      layerRuns += layers
    }
    w.prepare(a.trace)
    val facts = w.setupFacts
    val w0 = System.nanoTime()
    do w.warmup() while (System.nanoTime() - w0 < w.warmupSeconds * 1e9)
    val warmupS = (System.nanoTime() - w0) / 1e9

    val (mainKind, sideKind) = w.kinds
    val kindNames = Array(mainKind, sideKind)
    val samples = Array(new Samples, new Samples)
    val tracer = new Tracer
    val replays = kindNames.map(k => new Replay(tracer, k))
    val roots = kindNames.map(tracer.id)
    val traces = Array(ArrayBuffer.empty[OpTrace], ArrayBuffer.empty[OpTrace])
    var attempted = 0L
    var failed = 0L
    var units = 0L
    val deadline = System.nanoTime() + a.seconds * 1000000000L
    var i = 0
    while (System.nanoTime() < deadline || i < 2 * w.minOpsPerKind) {
      w.beforeOp(i)
      val t0 = System.nanoTime()
      w.op(i)
      val t1 = System.nanoTime()
      val kind = i % 2
      samples(kind).add((t1 - t0) / 1e6)
      units += w.opsIn(i)
      val c = w.check(i)
      attempted += c.attempted
      failed += c.failed
      if (a.trace) {
        tracer.op = i
        val root = tracer.begin(roots(kind), -1)
        val ts = w.replay(i, replays(kind), root)
        tracer.end(root)
        traces(kind) ++= ts
      }
      i += 1
    }
    val mismatched = traces.map(_.count(!_.matched)).sum
    val busyS = (samples(0).sum + samples(1).sum) / 1000.0
    def fact(name: String) = facts.find(_.name == name).get

    val endToEnd = Seq(
      Metric("setup_s", Samples.median(totals.toSeq), "s", s"median of ${totals.length} set-ups"),
      Metric("main_ms_p50", samples(0).p50, "ms", s"$mainKind, n=${samples(0).count}"),
      Metric("side_ms_p50", samples(1).p50, "ms", s"$sideKind, n=${samples(1).count}"),
      Metric("ops_per_s", units / busyS, "1/s", s"$units queries and inserts in ${f"$busyS%.3f"} s busy"),
      fact("index_bytes_per_data_byte"))

    val perKind = kindNames.indices.flatMap { k =>
      val s = samples(k)
      Seq(Metric(s"${kindNames(k)}_ms_p50", s.p50, "ms", s"n=${s.count}")) ++
        s.p99.map(v => Metric(s"${kindNames(k)}_ms_p99", v, "ms", s"n=${s.count}"))
    }
    val info = perKind ++ Seq(
      Metric("failed_op_frac", failed.toDouble / math.max(1L, attempted), "ratio", s"$failed of $attempted"),
      Metric("run_s", (System.nanoTime() - runStart) / 1e9, "s", "wall time of the run up to here"))
    val jvm = Seq(
      Metric("jvm.gc_ms", Jvm.gcMs, "ms", "run up to the end of the timed loop"),
      Metric("jvm.heap_used_peak_mb", Jvm.heapPeakMb, "MB", "run up to the end of the timed loop"),
      Metric("jvm.warmup_s", warmupS, "s", "untimed warm-up passes, every op kind"))

    if (!a.trace)
      return Result(failed == 0, attempted, failed, endToEnd, endToEnd ++ info ++ jvm)

    // ---- traced run: per-layer split ----
    val layered = Seq("data.gen", "embed.ptr", "partition.l2p", "spark.assign",
                      "tgm.build", "htgm.build", "spark.tgm_agg")
    def layerMedian(names: String*): Double =
      Samples.median(layerRuns.toSeq.map(l => names.map(l.getOrElse(_, 0.0)).sum))
    val setupLayers = Seq(
      Metric("data.gen_s", layerMedian("data.gen"), "s", "SetGen"),
      Metric("embed.ptr_s", layerMedian("embed.ptr"), "s", "PTR embedding"),
      Metric("partition.l2p_s", layerMedian("partition.l2p", "spark.assign"), "s", "L2P training (+ Spark assignment UDF)"),
      Metric("tgm.build_s", layerMedian("tgm.build", "htgm.build", "spark.tgm_agg"), "s", "every TGM built"),
      Metric("setup.other_s", Samples.median(totals.indices.map(r =>
               totals(r) - layered.map(layerRuns(r).getOrElse(_, 0.0)).sum)),
             "s", "set-up outside the layers above: Spark session start, glue"))
    val setupDetail = layerRuns.head.keys.toSeq.map(n => Metric(s"setup.$n.s", layerMedian(n), "s", "median over set-ups"))

    val spans = tracer.byName
    def total(name: String) = spans.get(name).map(_._1).getOrElse(0.0)
    def self(name: String) = spans.get(name).map(_._2).getOrElse(0.0)
    val all = traces(0) ++ traces(1)
    val queries = all.filter(_.query)
    val nOps = math.max(1, all.length).toDouble
    val nQ = math.max(1, queries.length).toDouble
    val tgmMs = kindNames.map(k => total(s"$k/tgm.ub") + total(s"$k/tgm.add")).sum
    val verifyMs = kindNames.map(k => total(s"$k/verify")).sum
    val selfMs = kindNames.map(k => self(k) + total(s"$k/search.order")).sum
    val rootMs = kindNames.map(total).sum
    val cands = queries.map(_.candidates).sum.toDouble
    val opLayers = Seq(
      Metric("tgm.ms_per_op", tgmMs / nOps, "ms", "TGM.ub scans + TGM.addSet"),
      Metric("tgm.ub_probes_per_op", all.map(_.ubProbes).sum / nOps, "count", "group x query-token cells"),
      Metric("tgm.groups_pruned_frac",
             queries.map(q => q.finestGroups - q.groupsRead).sum.toDouble / math.max(1L, queries.map(_.finestGroups).sum),
             "ratio", "finest-level groups not read, over queries"),
      Metric("verify.ms_per_op", verifyMs / nOps, "ms", "Measure.sim over group members, incl. top-k upkeep"),
      Metric("verify.candidates_per_query", cands / nQ, "count", s"n=${queries.length} queries"),
      Metric("verify.hit_frac", queries.map(_.hits).sum / math.max(1.0, cands), "ratio", "results over candidates"),
      Metric("search.self_ms_per_op", selfMs / nOps, "ms", "op time outside TGM and verify: ordering, HTGM frontier, group choice, glue"),
      Metric("search.groups_read_per_query", queries.map(_.groupsRead).sum / nQ, "count", ""),
      Metric("search.pe", queries.map(_.pe).sum / nQ, "ratio", "pruning efficiency, Def. 2.3"),
      Metric("replay.engine_time_ratio", (samples(0).sum + samples(1).sum) / math.max(1e-9, rootMs), "ratio",
             "engine op time over traced replay time"))
    val kindDetail = kindNames.indices.flatMap { k =>
      val n = math.max(1, traces(k).length).toDouble
      val kk = kindNames(k)
      Seq(Metric(s"$kk.tgm_ub_ms_per_op", total(s"$kk/tgm.ub") / n, "ms", s"n=${traces(k).length}"),
          Metric(s"$kk.tgm_add_ms_per_op", total(s"$kk/tgm.add") / n, "ms", ""),
          Metric(s"$kk.order_ms_per_op", total(s"$kk/search.order") / n, "ms", ""),
          Metric(s"$kk.verify_ms_per_op", total(s"$kk/verify") / n, "ms", ""),
          Metric(s"$kk.self_ms_per_op", self(kk) / n, "ms", ""),
          Metric(s"$kk.ub_probes_per_op", traces(k).map(_.ubProbes).sum / n, "count", ""),
          Metric(s"$kk.candidates_per_op", traces(k).map(_.candidates).sum / n, "count", ""))
    }
    val perLayer = setupLayers ++ facts.filterNot(_.name == "index_bytes_per_data_byte") ++
      opLayers ++ w.references() ++ jvm
    Files.createDirectories(a.out)
    tracer.write(a.out.resolve(s"spans-${a.workload}.tsv.gz"))
    val matchNote = Metric("replay.mismatched_ops", mismatched.toDouble, "count",
                           s"replays that differ from the engine, of ${all.length}")
    Result(failed == 0 && mismatched == 0, attempted, failed, perLayer,
           perLayer ++ setupDetail ++ kindDetail ++ info :+ matchNote)
  }
}
