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
  def indexConstruction(scale: Double = 0.1): ExpTable = {
    val f = ParamGrid.fDefault
    val rows = ParamGrid.theta.flatMap { th =>
      val sources = Workloads.cellSources(th, scale)
      val pool = pooled(sources)
      val side = sources.head.grid.side
      val cells = pool.map(_._2.length.toLong).sum
      def entry[A](name: String, build: => A)(mem: A => Long) = {
        val t = Bench.timeMs(build)
        val units = mem(build)
        (Seq(th.toString, name, t.toString, units.toString),
         Map(s"$name-build@$th" -> t.median, s"$name-mem@$th" -> units.toDouble))
      }
      Seq(
        entry("DITS-L", DitsLocal.build(pool, f))(ix => ix.nodeCount + ix.postingEntries),
        entry("QuadTree", QuadTreeIndex.build(pool, side))(_.nodeCount + cells),
        entry("Rtree", RTreeIndex.build(pool, f))(_.nodeCount + cells),
        entry("STS3", Sts3Index.build(pool))(_.postingEntries),
        entry("Josie", JosieIndex.build(pool))(_.postingEntries))
    }
    ExpTable("Fig. 8 — index construction vs θ",
      Seq("theta", "index", "build_ms [IQR]", "mem_units"),
      rows.map(_._1), rows.flatMap(_._2).toMap)
  }

  /** Time (ms, [[Bench]]'s rule) of each named engine answering every
    * query of `queries` in turn.
    */
  private def batchTimes(queries: IndexedSeq[Array[Long]],
                         engines: Seq[(String, Array[Long] => Any)]): Map[String, Bench.Timing] =
    engines.map { case (name, run) => name -> Bench.timeMs(queries.foreach(run)) }.toMap

  // ------------------------------------------------------------------ //
  // Figs. 9–12 — OJSP search time vs k, θ, q, f (5 algorithms)          //
  // ------------------------------------------------------------------ //

  private type Ojsp = (Array[Long], Int) => Any

  /** The OJSP engines named in `algs`, each built once over `pool`, so
    * sweeps over k/q reuse the same indexes.
    */
  private def ojspEngines(pool: IndexedSeq[(Int, Array[Long])], side: Int, f: Int,
                          algs: Seq[String]): Seq[(String, Ojsp)] =
    algs.map { name =>
      val search: Ojsp = name match {
        case "DITS" =>
          val ix = DitsLocal.build(pool, f)
          (q, k) => OverlapSearch.search(ix, q, k)
        case "QuadTree" => QuadTreeIndex.build(pool, side).overlapTopK
        case "Rtree"    => RTreeIndex.build(pool, f).overlapTopK
        case "STS3"     => Sts3Index.build(pool).overlapTopK
        case "Josie"    => JosieIndex.build(pool).overlapTopK
      }
      name -> search
    }

  /** Total search time (ms) over `queries` for each OJSP engine. */
  private def ojspTimes(engines: Seq[(String, Ojsp)], queries: IndexedSeq[Array[Long]],
                        k: Int): Map[String, Bench.Timing] =
    batchTimes(queries, engines.map { case (name, s) => name -> ((q: Array[Long]) => s(q, k)) })

  private def sweep(title: String, param: String, values: Seq[String],
                    algs: Seq[String],
                    run: String => Map[String, Bench.Timing]): ExpTable = {
    values.foreach(run) // untimed pass over the whole sweep, so no timed row finishes JIT warm-up
    val results = values.map(v => v -> run(v))
    val rows = results.map { case (v, m) => v +: algs.map(a => m(a).toString) }
    val metrics = results.flatMap { case (v, m) => m.map { case (a, t) => s"$a@$v" -> t.median } }
    ExpTable(title, param +: algs, rows, metrics.toMap)
  }

  private val OjspAlgOrder = Seq("DITS", "QuadTree", "Rtree", "STS3", "Josie")

  /** The five OJSP engines over the sources at resolution θ. */
  private def allOjsp(sources: IndexedSeq[CellSource]): Seq[(String, Ojsp)] =
    ojspEngines(pooled(sources), sources.head.grid.side, ParamGrid.fDefault, OjspAlgOrder)

  def overlapVsK(scale: Double = 0.1): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val engines = allOjsp(sources)
    val queries = Workloads.sampleQueries(sources, ParamGrid.qDefault)
    sweep("Fig. 9 — OJSP time (ms, median [IQR]) vs k", "k", ParamGrid.k.map(_.toString), OjspAlgOrder,
      v => ojspTimes(engines, queries, v.toInt))
  }

  def overlapVsTheta(scale: Double = 0.1): ExpTable =
    sweep("Fig. 10 — OJSP time (ms, median [IQR]) vs θ", "theta", ParamGrid.theta.map(_.toString),
          OjspAlgOrder, v => {
      val sources = Workloads.cellSources(v.toInt, scale)
      ojspTimes(allOjsp(sources), Workloads.sampleQueries(sources, ParamGrid.qDefault),
                ParamGrid.kDefault)
    })

  def overlapVsQ(scale: Double = 0.1): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val engines = allOjsp(sources)
    sweep("Fig. 11 — OJSP time (ms, median [IQR]) vs q", "q", ParamGrid.q.map(_.toString), OjspAlgOrder,
      v => ojspTimes(engines, Workloads.sampleQueries(sources, v.toInt), ParamGrid.kDefault))
  }

  def overlapVsF(scale: Double = 0.1): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val pool = pooled(sources); val side = sources.head.grid.side
    val queries = Workloads.sampleQueries(sources, ParamGrid.qDefault)
    val algs = Seq("DITS", "Rtree") // others have no f (paper, Fig. 12)
    sweep("Fig. 12 — OJSP time (ms, median [IQR]) vs f", "f", ParamGrid.f.map(_.toString), algs,
      v => ojspTimes(ojspEngines(pool, side, v.toInt, algs), queries, ParamGrid.kDefault))
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

  /** Queries per CJSP batch in Figs. 15, 16 and 18 (SG is slow). */
  private val CjspQueries = 5

  private val CjspAlgs = Seq("CoverageSearch", "SG+DITS", "SG")

  /** The three CJSP algorithms at (δ, k); the two DITS engines share
    * `ix`, built over `pool`.
    */
  private def cjspEngines(pool: IndexedSeq[(Int, Array[Long])], ix: DitsLocal,
                          delta: Double, k: Int): Seq[(String, Array[Long] => Any)] = Seq(
    "CoverageSearch" -> (q => CoverageSearch.search(ix, q, delta, k)),
    "SG+DITS"        -> (q => StandardGreedy.sgDits(ix, q, delta, k)),
    "SG"             -> (q => StandardGreedy.sg(pool, q, delta, k)))

  def coverageVsK(scale: Double = 0.1): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val pool = pooled(sources)
    val ix = DitsLocal.build(pool, ParamGrid.fDefault)
    val queries = Workloads.sampleQueries(sources, CjspQueries)
    sweep("Fig. 15 — CJSP time (ms, median [IQR]) vs k", "k", ParamGrid.k.map(_.toString), CjspAlgs,
      v => batchTimes(queries, cjspEngines(pool, ix, ParamGrid.deltaDefault, v.toInt)))
  }

  def coverageVsTheta(scale: Double = 0.1): ExpTable = {
    sweep("Fig. 16 — CJSP time (ms, median [IQR]) vs θ", "theta", ParamGrid.theta.map(_.toString), CjspAlgs, v => {
      val sources = Workloads.cellSources(v.toInt, scale)
      val pool = pooled(sources)
      val queries = Workloads.sampleQueries(sources, CjspQueries)
      val ix = DitsLocal.build(pool, ParamGrid.fDefault)
      batchTimes(queries, cjspEngines(pool, ix, ParamGrid.deltaDefault, ParamGrid.kDefault))
    })
  }

  def coverageVsQ(scale: Double = 0.1): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val pool = pooled(sources)
    val ix = DitsLocal.build(pool, ParamGrid.fDefault)
    sweep("Fig. 17 — CJSP time (ms, median [IQR]) vs q", "q", ParamGrid.q.map(_.toString), CjspAlgs, v => {
      batchTimes(Workloads.sampleQueries(sources, v.toInt),
                 cjspEngines(pool, ix, ParamGrid.deltaDefault, ParamGrid.kDefault))
    })
  }

  def coverageVsDelta(scale: Double = 0.1): ExpTable = {
    val sources = Workloads.cellSources(ParamGrid.thetaDefault, scale)
    val pool = pooled(sources)
    val ix = DitsLocal.build(pool, ParamGrid.fDefault)
    val queries = Workloads.sampleQueries(sources, CjspQueries)
    sweep("Fig. 18 — CJSP time (ms, median [IQR]) vs δ", "delta", ParamGrid.delta.map(_.toString), CjspAlgs,
      v => batchTimes(queries, cjspEngines(pool, ix, v.toDouble, ParamGrid.kDefault)))
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
          Seq(Bench.fmt(c.total / 1024.0), Bench.fmt(c.transferMillis))) },
      rows.flatMap { case (q, cs) =>
        labels.zip(cs).map { case (n, c) => s"$n@$q" -> c.total.toDouble }
      }.toMap)
  }

  // ------------------------------------------------------------------ //
  // Figs. 21–22 — index update time vs β (5 indexes)                    //
  // ------------------------------------------------------------------ //
  def indexUpdates(scale: Double = 0.1): ExpTable = {
    val betas = Workloads.Betas
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
    // Each timed batch writes into its own fresh index, built untimed.
    val rows = betas.flatMap { b =>
      val ins = fresh.take(b); val upd = variant.take(b)
      indexes.map { case (name, build) =>
        val insert = Bench.timeMsAfter(build()._1)(insert =>
          ins.foreach { case (id, cs) => insert(id, cs) })
        val update = Bench.timeMsAfter(build()._2)(update =>
          upd.foreach { case (id, cs) => update(id, cs) })
        (Seq(b.toString, name, insert.toString, update.toString),
         Map(s"$name-insert@$b" -> insert.median, s"$name-update@$b" -> update.median))
      }
    }
    ExpTable("Figs. 21–22 — index update time vs β",
      Seq("beta", "index", "insert_ms [IQR]", "update_ms [IQR]"),
      rows.map(_._1), rows.flatMap(_._2).toMap)
  }
}
