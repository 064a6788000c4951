package repro.exp

import repro.core.dits._
import repro.core.baselines._
import repro.multisource._
import repro.exp.Workloads.{CellSource, ParamGrid}

/** One reproduced table/figure: rendered rows plus raw metrics keyed
  * `"<algorithm>@<param>"` for programmatic assertions in the benches.
  */
final case class ExpTable(title: String, header: Seq[String],
                          rows: Seq[Seq[String]], metrics: Map[String, Double]) {
  def render: String = Bench.table(title, header, rows)
}

/** One function per evaluation table/figure (see DESIGN.md §5). All are
  * deterministic in (scale, seed) and shared by the spark-submit jobs in
  * `jobs/` and the bench suites in `bench/`.
  */
object Experiments {

  /** Globally-unique ids across sources (source s keeps id range
    * [s·10^6, …)) so pooled single-index baselines stay well-defined.
    */
  def pooled(sources: IndexedSeq[CellSource]): IndexedSeq[(Int, Array[Long])] =
    sources.flatMap(s => s.datasets.map { case (id, cells) =>
      (s.spec.sourceId * 1_000_000 + id, cells)
    })

  // ------------------------------------------------------------------ //
  // Table I — data source statistics                                    //
  // ------------------------------------------------------------------ //
  def tableI(scale: Double = 0.1): ExpTable = {
    val specs = repro.core.SynthSpatial.paperSources(scale)
    val rows = specs.map { spec =>
      val ds = repro.core.SynthSpatial.source(spec, Workloads.Seed)
      val pts = ds.map(_.points.length.toLong).sum
      Seq(spec.name, ds.length.toString, pts.toString,
          f"[(${spec.region.minX}%.2f,${spec.region.minY}%.2f),(${spec.region.maxX}%.2f,${spec.region.maxY}%.2f)]")
    }
    ExpTable(s"Table I (synthetic, scale=$scale)",
      Seq("source", "datasets", "points", "range"), rows,
      rows.map(r => s"datasets@${r.head}" -> r(1).toDouble).toMap)
  }

  // ------------------------------------------------------------------ //
  // Fig. 8 — index construction time and memory vs θ                    //
  // ------------------------------------------------------------------ //
  def indexConstruction(thetas: Seq[Int] = ParamGrid.theta,
                        scale: Double = 0.1, f: Int = ParamGrid.fDefault): ExpTable = {
    val rows = thetas.flatMap { th =>
      val sources = Workloads.cellSources(th, scale)
      val pool = pooled(sources)
      val side = sources.head.grid.side
      def entry(name: String, buildMs: => Double, mem: => Long) = {
        val ms = buildMs
        (Seq(th.toString, name, Bench.fmt(ms), mem.toString),
         Map(s"$name-build@$th" -> ms, s"$name-mem@$th" -> mem.toDouble))
      }
      val dits   = entry("DITS-L",  Bench.medianMs(1, 3)(DitsLocal.build(pool, f)),
                         { val ix = DitsLocal.build(pool, f); ix.nodeCount + ix.postingEntries })
      val quad   = entry("QuadTree", Bench.medianMs(1, 3)(QuadTreeIndex.build(pool, side)),
                         { val ix = QuadTreeIndex.build(pool, side)
                           ix.nodeCount.toLong + pool.map(_._2.length.toLong).sum })
      val rtree  = entry("Rtree",   Bench.medianMs(1, 3)(RTreeIndex.build(pool, f)),
                         { val ix = RTreeIndex.build(pool, f)
                           ix.nodeCount.toLong + pool.map(_._2.length.toLong).sum })
      val sts3   = entry("STS3",    Bench.medianMs(1, 3)(Sts3Index.build(pool)),
                         Sts3Index.build(pool).postingEntries)
      val josie  = entry("Josie",   Bench.medianMs(1, 3)(JosieIndex.build(pool)),
                         JosieIndex.build(pool).postingEntries)
      Seq(dits, quad, rtree, sts3, josie)
    }
    ExpTable("Fig. 8 — index construction vs θ",
      Seq("theta", "index", "build_ms", "mem_units"),
      rows.map(_._1), rows.flatMap(_._2).toMap)
  }

  // ------------------------------------------------------------------ //
  // Figs. 9–12 — OJSP search time vs k, θ, q, f (5 algorithms)          //
  // ------------------------------------------------------------------ //

  /** Prebuilt OJSP engines so sweeps over k/q reuse the same indexes and
    * JIT warmup is not billed to the first sweep value.
    */
  final class OjspEngines(pool: IndexedSeq[(Int, Array[Long])], side: Int, f: Int) {
    val dits: DitsLocal = DitsLocal.build(pool, f)
    val quad: QuadTreeIndex = QuadTreeIndex.build(pool, side)
    val rtree: RTreeIndex = RTreeIndex.build(pool, f)
    val sts3: Sts3Index = Sts3Index.build(pool)
    val josie: JosieIndex = JosieIndex.build(pool)

    def searchers(restrict: Set[String]): Seq[(String, (Array[Long], Int) => Any)] = Seq(
      "DITS"     -> ((q: Array[Long], k: Int) => OverlapSearch.search(dits, q, k)),
      "QuadTree" -> ((q: Array[Long], k: Int) => quad.overlapTopK(q, k)),
      "Rtree"    -> ((q: Array[Long], k: Int) => rtree.overlapTopK(q, k)),
      "STS3"     -> ((q: Array[Long], k: Int) => sts3.overlapTopK(q, k)),
      "Josie"    -> ((q: Array[Long], k: Int) => josie.overlapTopK(q, k)),
    ).filter { case (n, _) => restrict(n) }
  }

  /** Total search time (ms) over `queries` for each OJSP algorithm. */
  private def ojspTimes(engines: OjspEngines, queries: IndexedSeq[Array[Long]], k: Int,
                        algs: Set[String]): Map[String, Double] =
    engines.searchers(algs).map { case (name, s) =>
      name -> Bench.medianMs(2, 5)(queries.foreach(q => s(q, k)))
    }.toMap

  private val AllOjsp = Set("DITS", "QuadTree", "Rtree", "STS3", "Josie")

  private def sweep(title: String, param: String, values: Seq[String],
                    algs: Seq[String],
                    run: String => Map[String, Double]): ExpTable = {
    val results = values.map(v => v -> run(v))
    val rows = results.map { case (v, m) =>
      v +: algs.map(a => Bench.fmt(m(a)))
    }
    val metrics = results.flatMap { case (v, m) => m.map { case (a, t) => s"$a@$v" -> t } }
    ExpTable(title, param +: algs, rows, metrics.toMap)
  }

  private val OjspAlgOrder = Seq("DITS", "QuadTree", "Rtree", "STS3", "Josie")

  def overlapVsK(scale: Double = 0.1, q: Int = ParamGrid.qDefault): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val engines = new OjspEngines(pooled(sources), sources.head.grid.side, ParamGrid.fDefault)
    val queries = Workloads.sampleQueries(sources, q)
    sweep("Fig. 9 — OJSP time (ms) vs k", "k", ParamGrid.k.map(_.toString), OjspAlgOrder,
      v => ojspTimes(engines, queries, v.toInt, AllOjsp))
  }

  def overlapVsTheta(scale: Double = 0.1, q: Int = ParamGrid.qDefault): ExpTable =
    sweep("Fig. 10 — OJSP time (ms) vs θ", "theta", ParamGrid.theta.map(_.toString),
          OjspAlgOrder, v => {
      val sources = Workloads.cellSources(v.toInt, scale)
      val engines = new OjspEngines(pooled(sources), sources.head.grid.side, ParamGrid.fDefault)
      val queries = Workloads.sampleQueries(sources, q)
      ojspTimes(engines, queries, ParamGrid.kDefault, AllOjsp)
    })

  def overlapVsQ(scale: Double = 0.1): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val engines = new OjspEngines(pooled(sources), sources.head.grid.side, ParamGrid.fDefault)
    sweep("Fig. 11 — OJSP time (ms) vs q", "q", ParamGrid.q.map(_.toString), OjspAlgOrder, v => {
      val queries = Workloads.sampleQueries(sources, v.toInt)
      ojspTimes(engines, queries, ParamGrid.kDefault, AllOjsp)
    })
  }

  def overlapVsF(scale: Double = 0.1, q: Int = ParamGrid.qDefault): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val pool = pooled(sources); val side = sources.head.grid.side
    val queries = Workloads.sampleQueries(sources, q)
    sweep("Fig. 12 — OJSP time (ms) vs f", "f", ParamGrid.f.map(_.toString),
          Seq("DITS", "Rtree"), // others have no f (paper, Fig. 12)
      v => ojspTimes(new OjspEngines(pool, side, v.toInt), queries,
                     ParamGrid.kDefault, Set("DITS", "Rtree")))
  }

  // ------------------------------------------------------------------ //
  // Figs. 13–14 — OJSP communication vs q                               //
  // ------------------------------------------------------------------ //
  def overlapComm(scale: Double = 0.1): ExpTable =
    commTable("Figs. 13–14 — OJSP communication vs q", scale,
      Seq("Baselines(bcast)", "DITS-G(cand)", "OverlapSearch(clip)"))(
      (center, q, st) => center.overlapSearch(q, ParamGrid.kDefault, st)._2)

  // ------------------------------------------------------------------ //
  // Figs. 15–18 — CJSP search time vs k, θ, q, δ (3 algorithms)         //
  // ------------------------------------------------------------------ //
  private def cjspTimes(pool: IndexedSeq[(Int, Array[Long])], ix: DitsLocal,
                        queries: IndexedSeq[Array[Long]],
                        delta: Double, k: Int): Map[String, Double] = {
    // One unmeasured warm-up pass (JIT) on a cut-down instance.
    val wq = queries.head
    CoverageSearch.search(ix, wq, delta, 2)
    StandardGreedy.sgDits(ix, wq, delta, 2)
    StandardGreedy.sg(pool.take(100), wq, delta, 2)
    Map(
      "CoverageSearch" -> Bench.timeMs(queries.foreach(q => CoverageSearch.search(ix, q, delta, k))),
      "SG+DITS"        -> Bench.timeMs(queries.foreach(q => StandardGreedy.sgDits(ix, q, delta, k))),
      "SG"             -> Bench.timeMs(queries.foreach(q => StandardGreedy.sg(pool, q, delta, k))),
    )
  }

  private val CjspAlgs = Seq("CoverageSearch", "SG+DITS", "SG")

  def coverageVsK(scale: Double = 0.1, q: Int = 5): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val pool = pooled(sources)
    val ix = DitsLocal.build(pool, ParamGrid.fDefault)
    val queries = Workloads.sampleQueries(sources, q)
    sweep("Fig. 15 — CJSP time (ms) vs k", "k", ParamGrid.k.map(_.toString), CjspAlgs,
      v => cjspTimes(pool, ix, queries, ParamGrid.deltaDefault, v.toInt))
  }

  def coverageVsTheta(scale: Double = 0.1, q: Int = 5): ExpTable = {
    sweep("Fig. 16 — CJSP time (ms) vs θ", "theta", ParamGrid.theta.map(_.toString), CjspAlgs, v => {
      val sources = Workloads.cellSources(v.toInt, scale)
      val pool = pooled(sources)
      val queries = Workloads.sampleQueries(sources, q)
      cjspTimes(pool, DitsLocal.build(pool, ParamGrid.fDefault), queries,
                ParamGrid.deltaDefault, ParamGrid.kDefault)
    })
  }

  def coverageVsQ(scale: Double = 0.1): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val pool = pooled(sources)
    val ix = DitsLocal.build(pool, ParamGrid.fDefault)
    sweep("Fig. 17 — CJSP time (ms) vs q", "q", ParamGrid.q.map(_.toString), CjspAlgs, v => {
      val queries = Workloads.sampleQueries(sources, v.toInt)
      cjspTimes(pool, ix, queries, ParamGrid.deltaDefault, ParamGrid.kDefault)
    })
  }

  def coverageVsDelta(scale: Double = 0.1, q: Int = 5): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val pool = pooled(sources)
    val ix = DitsLocal.build(pool, ParamGrid.fDefault)
    val queries = Workloads.sampleQueries(sources, q)
    sweep("Fig. 18 — CJSP time (ms) vs δ", "delta", ParamGrid.delta.map(_.toString), CjspAlgs,
      v => cjspTimes(pool, ix, queries, v.toDouble, ParamGrid.kDefault))
  }

  // ------------------------------------------------------------------ //
  // Figs. 19–20 — CJSP communication vs q                               //
  // ------------------------------------------------------------------ //
  def coverageComm(scale: Double = 0.1): ExpTable =
    commTable("Figs. 19–20 — CJSP communication vs q", scale,
      Seq("SG(bcast)", "SG+DITS(cand)", "CoverageSearch(clip)"))(
      (center, q, st) => center.coverageSearch(q, ParamGrid.deltaDefault, ParamGrid.kDefault, st)._2)

  /** Bytes (KB) and transfer time per q of `search` on a [[DataCenter]]
    * over the sources: one column pair per strategy, Broadcast,
    * Candidates and Clipped, named by `labels`.
    */
  private def commTable(title: String, scale: Double, labels: Seq[String])(
      search: (DataCenter, Array[(Double, Double)], Distribution) => CommStats): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val center = new DataCenter(sources.map(s =>
      new SourceNode(s.spec.sourceId, s.grid, s.datasets, ParamGrid.fDefault)))
    val grid = sources.head.grid
    val rows = ParamGrid.q.map { q =>
      val queries = Workloads.sampleQueries(sources, q).map(grid.centres)
      q -> Seq(Distribution.Broadcast, Distribution.Candidates, Distribution.Clipped).map { st =>
        val comm = new CommStats
        queries.foreach(qq => comm += search(center, qq, st))
        comm
      }
    }
    ExpTable(title,
      "q" +: labels.flatMap(n => Seq(s"$n KB", s"$n ms")),
      rows.map { case (q, cs) =>
        q.toString +: cs.flatMap(c =>
          Seq(Bench.fmt(c.total / 1024.0), Bench.fmt(c.transferMillis()))) },
      rows.flatMap { case (q, cs) =>
        labels.zip(cs).map { case (n, c) => s"$n@$q" -> c.total.toDouble }
      }.toMap)
  }

  // ------------------------------------------------------------------ //
  // Figs. 21–22 — index update time vs β (5 indexes)                    //
  // ------------------------------------------------------------------ //
  def indexUpdates(betas: Seq[Int] = Seq(100, 150, 200, 250, 300),
                   scale: Double = 0.1): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val pool = pooled(sources); val side = sources.head.grid.side
    val f = ParamGrid.fDefault
    val fresh = Workloads.freshDatasets(sources.head, betas.max).map {
      case (id, cells) => (900_000_000 + id, cells)
    }
    val existing = pool.take(betas.max)
    val variant = existing.map { case (id, cells) =>
      // Updated version: same id, shifted cell content.
      (id, repro.core.CellSet.of(cells.map(_ + 1)))
    }
    val byId = existing.toMap
    // Per index: a fresh build, and its insert and update of one dataset.
    type Ops = ((Int, Array[Long]) => Unit, (Int, Array[Long]) => Unit)
    val indexes: Seq[(String, () => Ops)] = Seq(
      "DITS-L" -> { () => val ix = DitsLocal.build(pool, f)
        ((id, cs) => ix.insert(DatasetNode(id, cs)), (id, cs) => ix.update(DatasetNode(id, cs))) },
      "QuadTree" -> { () => val ix = QuadTreeIndex.build(pool, side)
        (ix.insertDataset, (id, cs) => ix.updateDataset(id, byId(id), cs)) },
      "Rtree" -> { () => val ix = RTreeIndex.build(pool, f); (ix.insert, ix.update) },
      "STS3" -> { () => val ix = Sts3Index.build(pool)
        (ix.insert, (id, cs) => ix.update(id, byId(id), cs)) },
      "Josie" -> { () => val ix = JosieIndex.build(pool)
        (ix.insert, (id, cs) => ix.update(id, byId(id), cs)) },
    )
    val rows = betas.flatMap { b =>
      val ins = fresh.take(b); val upd = variant.take(b)
      indexes.map { case (name, build) =>
        val insert = build()._1
        val insertMs = Bench.timeMs(ins.foreach { case (id, cs) => insert(id, cs) })
        val update = build()._2
        val updateMs = Bench.timeMs(upd.foreach { case (id, cs) => update(id, cs) })
        (Seq(b.toString, name, Bench.fmt(insertMs), Bench.fmt(updateMs)),
         Map(s"$name-insert@$b" -> insertMs, s"$name-update@$b" -> updateMs))
      }
    }
    ExpTable("Figs. 21–22 — index update time vs β",
      Seq("beta", "index", "insert_ms", "update_ms"),
      rows.map(_._1), rows.flatMap(_._2).toMap)
  }
}
