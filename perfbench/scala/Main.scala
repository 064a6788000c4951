package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Kinds of timed operation (parts of one op, for per-kind latency). */
object Kind {
  val Ojsp = 0; val Cjsp = 1; val Write = 2
  val names: IndexedSeq[String] = IndexedSeq("ojsp", "cjsp", "write")
}

/** Times the parts of one op by kind. The harness times the whole op. */
final class Parts {
  val ns: IndexedSeq[mutable.ArrayBuffer[Long]] = Kind.names.map(_ => mutable.ArrayBuffer.empty[Long])
  def apply[A](kind: Int)(body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    ns(kind) += System.nanoTime() - t0
    r
  }
  def clear(): Unit = ns.foreach(_.clear())
}

/** One benchmark workload: a fixed sequence of ops (a pass) over inputs
  * generated from the seeds, run by one client in a closed loop.
  */
trait Workload {
  /** Setups per run; `setup_s` is their median. */
  def setupReps: Int
  /** Seconds of whole passes run before timing starts (and at least
    * [[Main.MinWarmupPasses]] passes).
    */
  def warmupSeconds: Double
  /** Generate the inputs, encode cells and build the index. */
  def setup(tr: Option[Tracer]): Unit
  /** Make the op sequence; runs once, after the last setup. */
  def prepare(): Unit
  def passLength: Int
  /** Whether op `i` is a read request (counted in `p50_ms`). */
  def isRead(i: Int): Boolean
  def run(i: Int, parts: Parts): AnyRef
  /** Op `i` replayed from the public pieces of each layer, with a span
    * around each. For a read, the harness also makes the real call and
    * counts the op as failed when the two results differ.
    */
  def runTraced(i: Int, parts: Parts, tr: Tracer): AnyRef
  /** Whether [[runTraced]] is a replay to check against the real call. */
  def replays: Boolean = true
  /** Observe the program's state right after op `i`, outside timing. */
  def settle(i: Int, result: AnyRef): AnyRef = result
  def canon(i: Int, result: AnyRef): String
  /** What a replay must reproduce: the answer, and anything else the real
    * call returns.
    */
  def replayCanon(i: Int, result: AnyRef): String = canon(i, result)
  /** Index-free reference answers, in op order. */
  def expected(refs: RefCache): IndexedSeq[String]
  /** Layer metrics the spans and counters cannot give. */
  def extraLayers(tr: Tracer, ops: OpCounts): Seq[(String, Double)] = Seq.empty
  def close(): Unit = ()
}

/** Number of timed ops of each kind in a set of passes. */
final case class OpCounts(reads: Long, ojsp: Long, cjsp: Long, writes: Long)

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      dataSeed: Long, querySeed: Long, outDir: Path)

object Main {
  /** Measured passes per run, at least: the reported times are medians
    * over them.
    */
  val MinPasses = 3
  /** Warm-up passes per run, at least: a first pass still compiles, and
    * a run whose first pass alone outlasted the warm-up time then timed
    * passes that still compiled and ran 10-20% slower.
    */
  val MinWarmupPasses = 2

  def parse(a: Array[String]): Args = {
    val m = a.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         m.getOrElse("data-seed", "42").toLong, m.getOrElse("query-seed", "7").toLong,
         Paths.get(m.getOrElse("out-dir", ".bench_build")))
  }

  def workload(a: Args): Workload = a.workload match {
    case "ojsp-rw"          => new OjspRw(a.dataSeed, a.seed)
    case "cjsp-k50"         => new CjspK50(a.dataSeed, a.querySeed, a.seed)
    case "multisource-clip" => new MultiSourceClip(a.dataSeed, a.querySeed, a.seed)
    case "spark-dist"       => new SparkDist(a.dataSeed, a.querySeed, a.seed, a.outDir)
    case w => throw new IllegalArgumentException(s"unknown workload $w")
  }

  /** JVM counters read at the edges of the measured window. */
  final case class JvmSnap(gcMs: Long, jitMs: Long, allocBytes: Long)
  def jvmSnap(): JvmSnap = {
    val gc = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
    val jit = ManagementFactory.getCompilationMXBean.getTotalCompilationTime
    val tb = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val ids = tb.getAllThreadIds
    val alloc = tb.getThreadAllocatedBytes(ids).filter(_ > 0).sum
    JvmSnap(gc, jit, alloc)
  }

  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.length
    if (n == 0) 0.0 else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile. */
  def pct(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0 else s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
  }

  private final class Failure(val e: Throwable) {
    override def toString: String = s"threw ${e.getClass.getSimpleName}: ${e.getMessage}"
  }

  /** Measured passes: results, op latencies and pass times. */
  private final class Window(w: Workload) {
    val results = mutable.ArrayBuffer.empty[Array[AnyRef]]
    val latNs = mutable.ArrayBuffer.empty[Array[Long]]
    val passMs = mutable.ArrayBuffer.empty[Double]
    var ns = 0L
    def ops: Long = latNs.length.toLong * w.passLength

    /** Each op's median and fastest time over the passes, in ms. Every
      * pass repeats the same ops on the same data; the median keeps the
      * GC pauses an op meets in most passes.
      */
    lazy val medMs: IndexedSeq[Double] =
      (0 until w.passLength).map(i => median(latNs.map(_(i) / 1e6).toSeq))
    lazy val bestMs: IndexedSeq[Double] =
      (0 until w.passLength).map(i => latNs.map(_(i)).min / 1e6)
    private def reads(ms: IndexedSeq[Double]): Seq[Double] = (0 until w.passLength).filter(w.isRead).map(ms)
    /** Ops of one pass over the median pass's wall time. */
    def opsPerS: Double = w.passLength / (median(passMs.toSeq) / 1e3)
    def p50Ms: Double = median(reads(medMs))
    def bestOpsPerS: Double = w.passLength / (bestMs.sum / 1e3)
    def bestP50Ms: Double = median(reads(bestMs))
    def readSamples: Int = reads(medMs).length
  }

  /** Run whole passes until at least `minPasses` passes and `seconds` of
    * op time have been measured. `check` runs after each op, outside its
    * timing.
    */
  private def measure(w: Workload, seconds: Double, minPasses: Int, call: Int => AnyRef,
                      check: (Int, AnyRef) => Unit = (_, _) => ()): Window = {
    val win = new Window(w)
    val n = w.passLength
    while (win.ns < seconds * 1e9 || win.passMs.length < minPasses) {
      val res = new Array[AnyRef](n)
      val lat = new Array[Long](n)
      var i = 0
      while (i < n) {
        val t0 = System.nanoTime()
        val r = try call(i) catch { case e: Exception => new Failure(e) }
        lat(i) = System.nanoTime() - t0
        res(i) = r match {
          case f: Failure => f
          case _ => try { val s = w.settle(i, r); check(i, s); s } catch { case e: Exception => new Failure(e) }
        }
        i += 1
      }
      win.results += res; win.latNs += lat
      win.passMs += lat.sum / 1e6; win.ns += lat.sum
    }
    win
  }

  private def counts(w: Workload, win: Window, parts: Parts): OpCounts =
    OpCounts(win.latNs.length.toLong * (0 until w.passLength).count(w.isRead),
             parts.ns(Kind.Ojsp).length.toLong, parts.ns(Kind.Cjsp).length.toLong,
             parts.ns(Kind.Write).length.toLong)

  private def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else java.math.BigDecimal.valueOf(d).toPlainString

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""

  private def jsonMetrics(ms: Seq[(String, Double, String)]): String =
    ms.map { case (n, v, u) => s"${str(n)}: {${str("value")}: ${num(v)}, ${str("unit")}: ${str(u)}}" }
      .mkString("{", ", ", "}")

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = workload(a)
    val tr = if (a.trace) Some(new Tracer) else None
    val parts = new Parts
    // Load the classes the measurement uses before any code gets hot: a
    // class loaded later can invalidate compiled code (the first timed pass
    // then recompiles).
    jvmSnap()

    // ---- Setup, several times; the last one stays. --------------------
    val setupS = mutable.ArrayBuffer.empty[Double]
    val setupLayers = mutable.ArrayBuffer.empty[Map[String, Double]]
    for (_ <- 0 until w.setupReps) {
      System.gc()
      tr.foreach(_.resetTotals())
      val t0 = System.nanoTime()
      w.setup(tr)
      setupS += (System.nanoTime() - t0) / 1e9
      tr.foreach(t => setupLayers += Layers.setup.map(n => n -> Layers.value(t, n)).toMap)
    }
    val heapMb = liveHeapMb()
    w.prepare()

    // ---- Warm-up: whole passes through the measuring code, discarded. --
    val warm = measure(w, w.warmupSeconds, MinWarmupPasses, i => w.run(i, parts))
    parts.clear()

    // ---- Measured passes. ---------------------------------------------
    // The traced run splits its time between untraced passes (the
    // baseline for the tracing overhead) and traced passes.
    val plain = if (a.trace) a.seconds / 2 else a.seconds
    val before = jvmSnap()
    val win = measure(w, plain, MinPasses, i => w.run(i, parts))
    val after = jvmSnap()
    val kindMs = Kind.names.indices.map(k => parts.ns(k).map(_ / 1e6).toSeq)
    val replayDiffs = mutable.ArrayBuffer.empty[String]
    val traced = tr.map { t =>
      parts.clear(); t.resetTotals()
      val tw = measure(w, a.seconds - plain, 1,
        { i => t.op = i; t.span("op")(w.runTraced(i, parts, t)) },
        { (i, r) =>
          if (w.isRead(i) && w.replays) { // the real call, for the replay's result
            val real = w.replayCanon(i, w.run(i, new Parts)); val replay = w.replayCanon(i, r)
            if (real != replay) {
              if (replayDiffs.length < 5) replayDiffs += s"op $i: replay $replay, real $real"
              throw new IllegalStateException("replay differs from the real call")
            }
          }
        })
      (tw, counts(w, tw, parts))
    }

    // ---- Check every timed op against the index-free reference. -------
    val exp = w.expected(new RefCache(a.outDir.resolve("refs")))
    var attempted = 0L; var failed = 0L
    val failures = mutable.ArrayBuffer.empty[String] ++ replayDiffs
    for (wn <- win +: traced.map(_._1).toSeq; res <- wn.results; i <- res.indices) {
      attempted += 1
      val got = res(i) match { case f: Failure => f.toString; case r => w.canon(i, r) }
      if (got != exp(i)) {
        failed += 1
        if (failures.length < 5) failures += s"op $i: got $got, expected ${exp(i)}"
      }
    }

    // ---- Report. -------------------------------------------------------
    val metrics: Seq[(String, Double, String)] = tr match {
      case None => Seq(
        ("setup_s", median(setupS.toSeq), "s"),
        ("heap_mb", heapMb, "MB"),
        ("ops_per_s", win.opsPerS, "1/s"),
        ("p50_ms", win.p50Ms, "ms"))
      case Some(t) =>
        val (tw, tc) = traced.get
        val plainOps = win.ops.toDouble
        val values = mutable.Map[String, Double]()
        Layers.all.foreach(n => values(n) = Layers.value(t, n, tc))
        Layers.setup.foreach(n => values(n) = median(setupLayers.map(_(n)).toSeq))
        values ++= w.extraLayers(t, tc)
        values ++= Seq(
          "jvm.gc_ms_per_op" -> (after.gcMs - before.gcMs) / plainOps,
          "jvm.alloc_kb_per_op" -> (after.allocBytes - before.allocBytes) / 1024.0 / plainOps,
          "jvm.jit_ms" -> (after.jitMs - before.jitMs).toDouble,
          "op.ojsp_p50_ms" -> median(kindMs(Kind.Ojsp)),
          "op.ojsp_p90_ms" -> pct(kindMs(Kind.Ojsp), 0.9),
          "op.cjsp_p50_ms" -> median(kindMs(Kind.Cjsp)),
          "op.cjsp_p90_ms" -> pct(kindMs(Kind.Cjsp), 0.9),
          "op.write_p50_ms" -> median(kindMs(Kind.Write)),
          "op.write_p90_ms" -> pct(kindMs(Kind.Write), 0.9),
          "trace.ops_per_s" -> tw.opsPerS,
          "trace.overhead_frac" -> (1 - tw.opsPerS / win.opsPerS))
        Layers.of(w).map(n => (n, values(n), Layers.unit(n)))
    }

    val diag = mutable.LinkedHashMap[String, String](
      "workload" -> str(a.workload), "seed" -> a.seed.toString, "trace" -> (if (a.trace) "1" else "0"),
      "data_seed" -> a.dataSeed.toString, "query_seed" -> a.querySeed.toString,
      "digest" -> str(Common.digest(exp.iterator)),
      "setup_s_each" -> setupS.map(num).mkString("[", ", ", "]"),
      "heap_mb" -> num(heapMb),
      "warmup_passes_ms" -> warm.passMs.map(num).mkString("[", ", ", "]"),
      "passes_ms" -> win.passMs.map(num).mkString("[", ", ", "]"),
      "ops_per_pass" -> w.passLength.toString,
      "best_ops_per_s" -> num(win.bestOpsPerS),
      "best_p50_ms" -> num(win.bestP50Ms),
      "read_samples" -> win.readSamples.toString,
      "jvm_jit_ms" -> (after.jitMs - before.jitMs).toString,
      "jvm_gc_ms" -> (after.gcMs - before.gcMs).toString) ++
      Kind.names.indices.filter(k => kindMs(k).nonEmpty).flatMap { k =>
        Seq(s"${Kind.names(k)}_p50_ms" -> num(median(kindMs(k))),
            s"${Kind.names(k)}_p90_ms" -> num(pct(kindMs(k), 0.9)),
            s"${Kind.names(k)}_samples" -> kindMs(k).length.toString)
      } ++ Seq(
      "error_frac" -> num(failed.toDouble / attempted),
      "failures" -> failures.map(str).mkString("[", ", ", "]"))
    traced.foreach { case (tw, _) => diag("traced_passes_ms") = tw.passMs.map(num).mkString("[", ", ", "]") }
    val diagJson = diag.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
    val result = s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": ${jsonMetrics(metrics)}}"""

    val tag = s"${a.workload}-seed${a.seed}-data${a.dataSeed}-query${a.querySeed}-trace${if (a.trace) 1 else 0}"
    Files.createDirectories(a.outDir.resolve("results"))
    Files.write(a.outDir.resolve("results").resolve(s"$tag.json"),
      s"{\"diagnostics\": $diagJson,\n \"result\": $result}\n".getBytes("UTF-8"))
    tr.foreach(_.write(a.outDir.resolve("traces").resolve(s"$tag.tsv")))
    w.close()
    println(s"# diagnostics $diagJson")
    println(result)
  }
}

/** Per-layer metric names and how each is read from the trace.
  *
  * `<layer>_ms` is the self time of the spans named `<layer>`; any other
  * name is a counter. Both are divided by the number of ops that use the
  * layer: OverlapSearch figures per OJSP search, CoverageSearch figures
  * per CJSP search, write figures per write, the rest per read request.
  */
object Layers {
  val setup: Seq[String] = Seq(
    "synth.generate_ms", "grid.encode_ms", "grid.points", "grid.cells",
    "dits_local.build_ms", "dits_local.nodes", "dits_local.posting_entries",
    "spark.session_ms", "spark.to_cells_ms", "spark.build_ms", "spark.shuffle_kb_build")

  val all: Seq[String] = Seq(
    "jvm.gc_ms_per_op", "jvm.alloc_kb_per_op", "jvm.jit_ms",
    "op.ojsp_p50_ms", "op.ojsp_p90_ms", "op.cjsp_p50_ms", "op.cjsp_p90_ms",
    "op.write_p50_ms", "op.write_p90_ms",
    "trace.ops_per_s", "trace.overhead_frac",
    "synth.generate_ms", "grid.encode_ms", "grid.points", "grid.cells", "grid.query_encode_ms",
    "dits_local.build_ms", "dits_local.nodes", "dits_local.posting_entries",
    "dits_local.delete_ms", "dits_local.insert_ms",
    "overlap.descend_ms", "overlap.upper_bound_ms", "overlap.lower_bound_ms", "overlap.verify_ms",
    "overlap.nodes_visited", "overlap.leaves_candidate", "overlap.leaves_verified",
    "overlap.posting_entries_scanned", "overlap.verify_yield",
    "coverage.find_connect_ms", "coverage.neighbor_index_ms", "coverage.gain_ms", "coverage.union_ms",
    "coverage.rounds", "coverage.candidates_per_round", "coverage.gain_evals",
    "dits_global.route_ms", "dits_global.sources_per_query",
    "source.search_ms", "center.self_ms",
    "comm.messages_per_query", "comm.kb_sent_per_query", "comm.kb_received_per_query", "comm.kb_per_query",
    "spark.session_ms", "spark.to_cells_ms", "spark.build_ms", "spark.shuffle_kb_build",
    "spark.jobs_per_query", "spark.tasks_per_query", "spark.task_busy_frac")

  /** Layers only the multi-source workloads run; the others leave them out. */
  val multiSource: Set[String] = Set(
    "grid.query_encode_ms", "dits_global.route_ms", "dits_global.sources_per_query",
    "source.search_ms", "center.self_ms",
    "comm.messages_per_query", "comm.kb_sent_per_query", "comm.kb_received_per_query", "comm.kb_per_query",
    "spark.session_ms", "spark.to_cells_ms", "spark.build_ms", "spark.shuffle_kb_build",
    "spark.jobs_per_query", "spark.tasks_per_query", "spark.task_busy_frac")

  /** The per-layer metrics a traced run of `w` prints. */
  def of(w: Workload): Seq[String] = w match {
    case _: MultiQueries => all
    case _ => all.filterNot(multiSource)
  }

  def unit(n: String): String =
    if (n.endsWith("_ms") || n.endsWith("_ms_per_op")) "ms"
    else if (n.contains("kb_")) "KB"
    else if (n.endsWith("_frac") || n.endsWith("_yield")) "1"
    else if (n.endsWith("ops_per_s")) "1/s"
    else "count"

  private def ratio(x: Double, n: Double): Double = if (n == 0) 0.0 else x / n

  /** Value of metric `n` from `t`, normalised per op of the layer. */
  def value(t: Tracer, n: String, c: OpCounts = null): Double = {
    def per(x: Double): Double =
      if (c == null) x
      else if (n.startsWith("overlap.")) ratio(x, c.ojsp.toDouble)
      else if (n.startsWith("coverage.")) ratio(x, c.cjsp.toDouble)
      else if (n.startsWith("dits_local.")) ratio(x, c.writes.toDouble)
      else ratio(x, c.reads.toDouble)
    n match {
      case "overlap.verify_yield" =>
        ratio(t.counter("overlap.leaves_yielding"), t.counter("overlap.leaves_verified"))
      case "coverage.candidates_per_round" =>
        ratio(t.counter("coverage.candidates"), t.counter("coverage.rounds"))
      case "dits_global.sources_per_query" => per(t.counter("dits_global.sources"))
      case "comm.messages_per_query" => per(t.counter("comm.messages"))
      case "comm.kb_sent_per_query" => per(t.counter("comm.bytes_sent") / 1024)
      case "comm.kb_received_per_query" => per(t.counter("comm.bytes_received") / 1024)
      case "comm.kb_per_query" =>
        per((t.counter("comm.bytes_sent") + t.counter("comm.bytes_received")) / 1024)
      case "spark.jobs_per_query" => per(t.counter("spark.jobs"))
      case "spark.tasks_per_query" => per(t.counter("spark.tasks"))
      case "spark.shuffle_kb_build" => t.counter("spark.shuffle_bytes_build") / 1024
      case "center.self_ms" => per(t.selfMs("center"))
      case _ if n.endsWith("_ms") => per(t.selfMs(n.stripSuffix("_ms")))
      case _ => per(t.counter(n))
    }
  }
}
