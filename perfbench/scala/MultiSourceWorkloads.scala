package repro.perfbench

import java.nio.file.Path
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core.{CellSet, MBR, Point, SynthSpatial}
import repro.core.baselines.{BruteForce, StandardGreedy}
import repro.core.dits.{CoverageSearch, DatasetNode}
import repro.multisource._
import repro.sparkops.{DistributedDits, SpatialCells}
import scala.collection.mutable
import scala.util.Random

/** The query datasets and answers shared by the two multi-source
  * workloads: each op issues one query dataset as OJSP (k=10), then as
  * CJSP (k=10, δ=5), so the two transports run the same queries.
  */
abstract class MultiQueries(dataSeed: Long, querySeed: Long, opSeed: Long) extends Workload {
  val Scale = 0.1
  val K = 10
  /** Query datasets drawn, size-stratified, with the query seed. */
  val Drawn = 16
  /** Every `stride`-th drawn query, in size order, is issued. */
  protected def stride: Int = 1

  protected var pool: IndexedSeq[(Int, Array[Long])] = _
  private var qset: IndexedSeq[Int] = _
  private var order: IndexedSeq[Int] = _

  def passLength: Int = Drawn / stride
  def isRead(i: Int): Boolean = true

  /** Choose the queries from the pooled datasets of all sources. */
  protected def chooseQueries(p: IndexedSeq[(Int, Array[Long])]): Unit = {
    pool = p
    val bySize = Common.stratified(pool, Drawn, new Random(querySeed)).sortBy(i => (pool(i)._2.length, pool(i)._1))
    qset = bySize.indices.collect { case j if j % stride == 0 => bySize(j) }.sorted
    order = new Random(opSeed).shuffle(qset.indices.toIndexedSeq)
  }
  protected def query(i: Int): Array[Long] = pool(qset(order(i)))._2

  def expected(refs: RefCache): IndexedSeq[String] = {
    val key = "multi-k10-" + Common.digest(Iterator[Any](dataSeed, Common.Delta, K) ++
      pool.iterator.map(_._2) ++ qset.iterator.map(pool(_)._2))
    def split(id: Int) = (id / 1000000, id % 1000000)
    val ans = refs(key, qset.length) { j =>
      val q = pool(qset(j))._2
      val hits = BruteForce.overlapTopK(pool, q, K).map { h => val (s, d) = split(h.id); (s, d, h.overlap) }
      val cov = StandardGreedy.sg(pool, q, Common.Delta, K)
      MultiQueries.canon(hits, cov.picked.map(split), cov.coverage)
    }
    order.map(ans)
  }
}

object MultiQueries {
  def canon(hits: Seq[(Int, Int, Int)], picked: Seq[(Int, Int)], coverage: Int): String =
    "O:" + hits.map { case (s, id, ov) => s"$s/$id:$ov" }.mkString(",") +
    " C:" + picked.map { case (s, id) => s"$s/$id" }.mkString(",") + "|" + coverage
}

/** multisource-clip: five `SourceNode`s behind one `DataCenter` using the
  * Clipped distribution; queries travel as lon/lat cell centres.
  */
object MultiSourceClip {
  private final case class Answer(hits: Seq[MultiHit], ojspComm: CommStats,
                                  cov: MultiCoverage, cjspComm: CommStats)
}

final class MultiSourceClip(dataSeed: Long, querySeed: Long, opSeed: Long)
    extends MultiQueries(dataSeed, querySeed, opSeed) {
  import MultiSourceClip.Answer
  val setupReps = 5
  val warmupSeconds = 8.0

  private var nodes: IndexedSeq[SourceNode] = _
  private var center: DataCenter = _
  private var queriesLonLat: IndexedSeq[Array[(Double, Double)]] = _

  def setup(tr: Option[Tracer]): Unit = {
    nodes = null; center = null
    val srcs = Common.sources(Scale, dataSeed, tr)
    val ns = Common.span(tr, "dits_local.build")(srcs.map { case (spec, ds) =>
      new SourceNode(spec.sourceId, Common.grid, ds, Common.F)
    })
    center = Common.span(tr, "dits_global.build")(new DataCenter(ns))
    tr.foreach { t =>
      t.count("dits_local.nodes", ns.map(_.index.nodeCount).sum)
      t.count("dits_local.posting_entries", ns.map(_.index.postingEntries.toDouble).sum)
    }
    nodes = ns
    chooseQueries(Common.pooled(srcs))
  }

  def prepare(): Unit = queriesLonLat = (0 until passLength).map(i => Common.lonLat(query(i)))

  def run(i: Int, parts: Parts): AnyRef = {
    val q = queriesLonLat(i)
    val (hits, c1) = parts(Kind.Ojsp)(center.overlapSearch(q, K, Distribution.Clipped))
    val (cov, c2) = parts(Kind.Cjsp)(center.coverageSearch(q, Common.Delta, K, Distribution.Clipped))
    Answer(hits, c1, cov, c2)
  }

  def runTraced(i: Int, parts: Parts, t: Tracer): AnyRef = {
    val q = queriesLonLat(i)
    val (hits, c1) = parts(Kind.Ojsp)(t.span("center")(overlapReplay(q, t)))
    val (cov, c2) = parts(Kind.Cjsp)(t.span("center")(coverageReplay(q, t)))
    for (c <- Seq(c1, c2)) {
      t.count("comm.messages", c.messages.toDouble)
      t.count("comm.bytes_sent", c.bytesSent.toDouble); t.count("comm.bytes_received", c.bytesReceived.toDouble)
    }
    Answer(hits, c1, cov, c2)
  }

  def canon(i: Int, r: AnyRef): String = {
    val a = r.asInstanceOf[Answer]
    MultiQueries.canon(a.hits.map(h => (h.sourceId, h.datasetId, h.overlap)), a.cov.picked, a.cov.coverage)
  }

  override def replayCanon(i: Int, r: AnyRef): String = {
    val a = r.asInstanceOf[Answer]
    def c(s: CommStats) = s"${s.messages}/${s.bytesSent}/${s.bytesReceived}"
    canon(i, r) + s" comm ${c(a.ojspComm)} ${c(a.cjspComm)}"
  }

  private def bySource(id: Int): SourceNode = nodes.find(_.sourceId == id).get

  private def mbr(pts: Array[(Double, Double)]): MBR = MBR.of(pts.map { case (x, y) => Point(x, y) })

  /** `DataCenter.overlapSearch` under Clipped, from its public pieces. */
  private def overlapReplay(q: Array[(Double, Double)], t: Tracer): (Seq[MultiHit], CommStats) = {
    val comm = new CommStats
    val targets = t.span("dits_global.route")(center.global.overlapCandidates(mbr(q)))
    t.count("dits_global.sources", targets.length)
    val all = mutable.ArrayBuffer.empty[MultiHit]
    targets.foreach { tg =>
      val payload = q.filter { case (x, y) => tg.lonLatRect.contains(Point(x, y)) }
      if (payload.nonEmpty) {
        comm.sendCells(payload.length)
        val node = bySource(tg.sourceId)
        val hits = t.span("source.search") {
          val local = t.span("grid.query_encode")(node.toLocalCells(payload))
          if (local.isEmpty) Seq.empty else Replay.overlap(node.index, local, K, t)
        }
        comm.receiveHits(hits.length)
        hits.foreach(h => all += MultiHit(tg.sourceId, h.id, h.overlap))
      }
    }
    (all.sortBy(h => (-h.overlap, h.sourceId, h.datasetId)).take(K).toSeq, comm)
  }

  /** `DataCenter.coverageSearch` under Clipped, from its public pieces. */
  private def coverageReplay(q: Array[(Double, Double)], t: Tracer): (MultiCoverage, CommStats) = {
    val comm = new CommStats
    val delta = Common.Delta
    val refGrid = nodes.map(_.grid).maxBy(_.theta)
    def refCells(pts: Array[(Double, Double)]) = CellSet.of(pts.map { case (x, y) => refGrid.cellOf(x, y) })
    var covered = refCells(q)
    var mergedPts = q.distinct
    val picked = mutable.ArrayBuffer.empty[(Int, Int)]
    val excluded = mutable.HashMap.empty[Int, Set[Int]].withDefaultValue(Set.empty)
    var it = 0
    var exhausted = false
    while (it < K && !exhausted) {
      val targets = t.span("dits_global.route")(center.global.coverageCandidates(mbr(mergedPts), delta))
      t.count("dits_global.sources", targets.length)
      t.count("coverage.rounds")
      var best: Option[(Int, Int, Int, Array[(Double, Double)])] = None
      targets.foreach { tg =>
        val slack = (delta + 1) * math.max(tg.grid.cellW, tg.grid.cellH)
        val clip = tg.lonLatRect.expand(slack)
        val payload = mergedPts.filter { case (x, y) => clip.contains(Point(x, y)) }
        if (payload.nonEmpty) {
          comm.sendCells(payload.length)
          val node = bySource(tg.sourceId)
          t.span("source.search")(localRound(node, payload, excluded(tg.sourceId), t)) match {
            case Some((id, cells)) =>
              comm.receiveCells(cells.length)
              val g = CellSet.marginalGain(refCells(cells), covered)
              val beats = best match {
                case None => true
                case Some((bs, bid, bg, _)) =>
                  g > bg || (g == bg && (tg.sourceId < bs || (tg.sourceId == bs && id < bid)))
              }
              if (beats) best = Some((tg.sourceId, id, g, cells))
            case None => comm.receiveHits(0)
          }
        }
      }
      best match {
        case Some((src, id, _, cells)) =>
          picked += ((src, id))
          excluded(src) = excluded(src) + id
          covered = CellSet.union(covered, refCells(cells))
          mergedPts = (mergedPts ++ cells).distinct
        case None => exhausted = true
      }
      it += 1
    }
    (MultiCoverage(picked.toSeq, covered.length), comm)
  }

  /** `SourceNode.localCoverageRound`, where the shipped merged set is
    * also the covered snapshot (as the Clipped strategy sends it).
    */
  private def localRound(node: SourceNode, shipped: Array[(Double, Double)], excluded: Set[Int],
                         t: Tracer): Option[(Int, Array[(Double, Double)])] = {
    val merged = t.span("grid.query_encode")(node.toLocalCells(shipped))
    if (merged.isEmpty) return None
    val covered = t.span("grid.query_encode")(node.toLocalCells(shipped))
    val out = mutable.ArrayBuffer.empty[DatasetNode]
    val tester = t.span("coverage.neighbor_index")(new CellSet.NeighborIndex(merged, Common.Delta))
    t.span("coverage.find_connect")(
      CoverageSearch.findConnected(node.index.root, CellSet.mbr(merged), tester, Common.Delta, out))
    t.count("coverage.candidates", out.length)
    val best = t.span("coverage.gain")(Replay.bestGain(out, excluded, covered, t))
    if (best == null) None
    else Some((best.id, best.cells.map { c => val r = node.grid.cellRect(c); (r.pivot.x, r.pivot.y) }))
  }
}

/** spark-dist: `DistributedDits` on `local[4]`, built from the points by
  * `SynthData.spatialSources` and `SpatialCells.toCells`, running the same
  * queries as multisource-clip (half of them).
  */
object SparkDist {
  private final case class Answer(hits: Seq[(Int, Int, Int)], picked: Seq[(Int, Int)], coverage: Int)
}

final class SparkDist(dataSeed: Long, querySeed: Long, opSeed: Long, outDir: Path)
    extends MultiQueries(dataSeed, querySeed, opSeed) {
  import SparkDist.Answer
  val setupReps = 1
  val warmupSeconds = 15.0
  // Half of the multisource-clip queries, evenly over their sizes: a pass
  // of all of them would take 7 s here.
  override protected def stride: Int = 2
  val Cores = 4

  private var spark: SparkSession = _
  private var dits: DistributedDits = _
  private var listener: Listener = _

  /** Shuffle bytes written, and the jobs, tasks and executor run time of
    * the traced queries (the jobs of job group "traced"), from Spark's
    * events.
    */
  private final class Listener extends SparkListener {
    private val tracedStages = mutable.HashSet.empty[Int]
    private var jobs = 0L; private var tasks = 0L; private var runMs = 0L; private var shuffleBytes = 0L
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == "traced") {
        jobs += 1; tracedStages ++= e.stageIds
      }
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
      if (tracedStages(e.stageId)) {
        tasks += 1
        if (e.taskMetrics != null) runMs += e.taskMetrics.executorRunTime
      }
    }
    /** (jobs, tasks, run ms, shuffle bytes), once queued events are in. */
    def snap: (Long, Long, Long, Long) = { Thread.sleep(500); synchronized((jobs, tasks, runMs, shuffleBytes)) }
  }

  def setup(tr: Option[Tracer]): Unit = {
    spark = Common.span(tr, "spark.session")(SparkSession.builder()
      .master(s"local[$Cores]").appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", Cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", outDir.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate())
    spark.sparkContext.setLogLevel("WARN")
    if (tr.isDefined) { listener = new Listener; spark.sparkContext.addSparkListener(listener) }
    val specs = SynthSpatial.paperSources(Scale)
    val cells = Common.span(tr, "spark.to_cells") {
      val c = SpatialCells.toCells(SynthData.spatialSources(spark, specs, dataSeed), Common.grid).cache()
      c.count()
      c
    }
    dits = Common.span(tr, "spark.build")(DistributedDits.build(cells, Common.grid, Common.F))
    tr.foreach(t => t.count("spark.shuffle_bytes_build", listener.snap._4.toDouble))
  }

  /** The queries and references need the datasets on the driver. */
  def prepare(): Unit = chooseQueries(Common.pooled(Common.sources(Scale, dataSeed, None)))

  def run(i: Int, parts: Parts): AnyRef = {
    val q = query(i)
    val (hits, _) = parts(Kind.Ojsp)(dits.overlapTopK(q, K))
    val (picked, cov) = parts(Kind.Cjsp)(dits.coverageSearch(q, Common.Delta, K))
    Answer(hits, picked, cov)
  }

  /** The operator's calls are not replayed: they are timed whole, and
    * their jobs are counted from Spark's events.
    */
  override def replays: Boolean = false

  def runTraced(i: Int, parts: Parts, t: Tracer): AnyRef = {
    val sc = spark.sparkContext
    sc.setJobGroup("traced", "traced query", interruptOnCancel = false)
    try t.span("spark.query")(run(i, parts)) finally sc.clearJobGroup()
  }

  def canon(i: Int, r: AnyRef): String = {
    val a = r.asInstanceOf[Answer]
    MultiQueries.canon(a.hits, a.picked, a.coverage)
  }

  override def extraLayers(t: Tracer, c: OpCounts): Seq[(String, Double)] = {
    val (jobs, tasks, runMs, _) = listener.snap
    Seq("spark.jobs_per_query" -> jobs.toDouble / c.reads,
        "spark.tasks_per_query" -> tasks.toDouble / c.reads,
        "spark.task_busy_frac" -> runMs / (t.selfMs("spark.query") * Cores))
  }

  override def close(): Unit = if (spark != null) spark.stop()
}
