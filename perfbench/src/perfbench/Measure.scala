package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Latency samples of one op kind, in milliseconds. */
final class Samples {
  private var xs = new Array[Double](1024)
  private var n = 0

  def add(ms: Double): Unit = {
    if (n == xs.length) xs = java.util.Arrays.copyOf(xs, 2 * n)
    xs(n) = ms
    n += 1
  }
  def count: Int = n
  def sum: Double = { var s = 0.0; var i = 0; while (i < n) { s += xs(i); i += 1 }; s }

  /** Linear-interpolated quantile (q in [0, 1]). */
  def quantile(q: Double): Double = {
    require(n > 0, "no samples")
    val s = java.util.Arrays.copyOf(xs, n)
    java.util.Arrays.sort(s)
    val pos = q * (n - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, n - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }
  def p50: Double = quantile(0.5)
  /** p99, defined only when at least ten samples lie beyond it. */
  def p99: Option[Double] = if (n >= 1000) Some(quantile(0.99)) else None
}

object Samples {
  def median(xs: Seq[Double]): Double = {
    val s = new Samples
    xs.foreach(s.add)
    s.p50
  }
}

/** In-memory span recorder for the traced run. A span has a name, start and
  * end (ns), the span that caused it (-1 for a root) and the id of the op it
  * belongs to. Spans are written out only when the run ends.
  */
final class Tracer {
  private val nameIds = mutable.LinkedHashMap.empty[String, Int]
  private var names = new Array[Int](1 << 16)
  private var starts = new Array[Long](1 << 16)
  private var ends = new Array[Long](1 << 16)
  private var parents = new Array[Int](1 << 16)
  private var ops = new Array[Int](1 << 16)
  private var n = 0
  /** Id of the op whose spans are being recorded. */
  var op: Int = -1

  def id(name: String): Int = nameIds.getOrElseUpdate(name, nameIds.size)

  def begin(name: Int, parent: Int): Int = {
    if (n == names.length) grow()
    names(n) = name; parents(n) = parent; ops(n) = op
    starts(n) = System.nanoTime()
    n += 1
    n - 1
  }
  def end(span: Int): Unit = ends(span) = System.nanoTime()

  private def grow(): Unit = {
    val m = 2 * n
    names = java.util.Arrays.copyOf(names, m); starts = java.util.Arrays.copyOf(starts, m)
    ends = java.util.Arrays.copyOf(ends, m); parents = java.util.Arrays.copyOf(parents, m)
    ops = java.util.Arrays.copyOf(ops, m)
  }

  /** Per span name: (total duration ms, total self time ms, span count). Self
    * time is the duration minus the time covered by the span's children.
    */
  def byName: Map[String, (Double, Double, Int)] = {
    val childNs = new Array[Long](n)
    var i = 0
    while (i < n) {
      if (parents(i) >= 0) childNs(parents(i)) += ends(i) - starts(i)
      i += 1
    }
    val total = new Array[Long](nameIds.size)
    val self = new Array[Long](nameIds.size)
    val cnt = new Array[Int](nameIds.size)
    i = 0
    while (i < n) {
      val d = ends(i) - starts(i)
      total(names(i)) += d; self(names(i)) += d - childNs(i); cnt(names(i)) += 1
      i += 1
    }
    nameIds.map { case (name, k) => name -> (total(k) / 1e6, self(k) / 1e6, cnt(k)) }.toMap
  }

  /** Write every span, gzipped, as a tab-separated line: op, span, parent,
    * name, start, end.
    */
  def write(path: java.nio.file.Path): Unit = {
    val nameOf = nameIds.map(_.swap)
    val w = new java.io.BufferedWriter(new java.io.OutputStreamWriter(
      new java.util.zip.GZIPOutputStream(java.nio.file.Files.newOutputStream(path), 1 << 16),
      java.nio.charset.StandardCharsets.UTF_8))
    try {
      w.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
      var i = 0
      while (i < n) {
        w.write(s"${ops(i)}\t$i\t${parents(i)}\t${nameOf(names(i))}\t${starts(i)}\t${ends(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

/** A named metric value with its unit. */
final case class Metric(name: String, value: Double, unit: String, note: String = "")

object Jvm {
  def gcMs: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum.toDouble

  def heapPeakMb: Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)
      .map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / (1024.0 * 1024.0)
}
