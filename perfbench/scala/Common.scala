package repro.perfbench

import java.nio.file.{Files, Path, StandardCopyOption}
import java.util.concurrent.{Callable, Executors}
import repro.core.{Grid, SynthSpatial}
import repro.core.SynthSpatial.SourceSpec
import repro.core.dits.{CoverageResult, DitsLocal, OverlapHit}
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Settings and input generation shared by the workloads. */
object Common {
  val Theta = 12
  val F = 10
  val Delta = 5.0
  val grid: Grid = Grid.world(Theta)

  def span[A](tr: Option[Tracer], name: String)(body: => A): A = tr match {
    case Some(t) => t.span(name)(body)
    case None    => body
  }

  /** The five paper sources at `scale`, generated and cell-encoded. */
  def sources(scale: Double, seed: Long, tr: Option[Tracer]): IndexedSeq[(SourceSpec, IndexedSeq[(Int, Array[Long])])] =
    SynthSpatial.paperSources(scale).map { spec =>
      val raw = span(tr, "synth.generate")(SynthSpatial.source(spec, seed))
      val cells = span(tr, "grid.encode")(raw.map(d => d.id -> grid.cellSet(d.points)))
      tr.foreach { t =>
        t.count("grid.points", raw.map(_.points.length.toDouble).sum)
        t.count("grid.cells", cells.map(_._2.length.toDouble).sum)
      }
      (spec, cells)
    }

  /** Pooled ids: source s keeps ids s·10⁶ + id, so the pool is sorted by
    * (source, id) and SG's tie order matches the multi-source engines.
    */
  def pooledId(source: Int, id: Int): Int = source * 1000000 + id

  def pooled(srcs: IndexedSeq[(SourceSpec, IndexedSeq[(Int, Array[Long])])]): IndexedSeq[(Int, Array[Long])] =
    srcs.flatMap { case (spec, ds) => ds.map { case (id, cells) => (pooledId(spec.sourceId, id), cells) } }

  /** The pooled datasets of the five sources and one DITS-L over them. */
  def pooledIndex(scale: Double, seed: Long, tr: Option[Tracer]): (IndexedSeq[(Int, Array[Long])], DitsLocal) = {
    val pool = pooled(sources(scale, seed, tr))
    val index = span(tr, "dits_local.build")(DitsLocal.build(pool, F))
    tr.foreach { t =>
      t.count("dits_local.nodes", index.nodeCount)
      t.count("dits_local.posting_entries", index.postingEntries.toDouble)
    }
    (pool, index)
  }

  /** `n` dataset positions of `pool`, one drawn from each of `n` equal
    * strata of the pool ordered by cell count, in a seeded order. Every
    * draw covers the size range evenly, which keeps the query mix similar
    * from seed to seed.
    */
  def stratified(pool: IndexedSeq[(Int, Array[Long])], n: Int, rnd: Random): IndexedSeq[Int] = {
    val bySize = pool.indices.sortBy(i => (pool(i)._2.length, pool(i)._1))
    val picks = (0 until n).map { s =>
      val lo = s * bySize.length / n
      val hi = math.max(lo + 1, (s + 1) * bySize.length / n)
      bySize(lo + rnd.nextInt(hi - lo))
    }
    rnd.shuffle(picks)
  }

  /** Lon/lat cell centres: the data center's wire format for a query. */
  def lonLat(cells: Array[Long]): Array[(Double, Double)] =
    cells.map { c => val r = grid.cellRect(c); (r.pivot.x, r.pivot.y) }

  def canonHits(hits: Seq[OverlapHit]): String = hits.map(h => s"${h.id}:${h.overlap}").mkString(",")
  def canonCov(r: CoverageResult): String = r.picked.mkString(",") + "|" + r.coverage

  /** Hex SHA-256 of a sequence of cell arrays and strings. */
  def digest(parts: Iterator[Any]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    parts.foreach {
      case a: Array[Long] =>
        md.update(a.length.toString.getBytes); a.foreach { x => buf.clear(); buf.putLong(x); md.update(buf.array()) }
      case x => md.update(x.toString.getBytes("UTF-8")); md.update(0.toByte)
    }
    md.digest().map("%02x".format(_)).mkString.take(24)
  }
}

/** Reference answers kept on disk across runs, keyed on a digest of the
  * generated inputs, and computed in parallel when missing.
  */
final class RefCache(dir: Path) {
  def apply(key: String, n: Int)(compute: Int => String): IndexedSeq[String] = {
    val f = dir.resolve(key + ".txt")
    if (Files.exists(f)) {
      val lines = Files.readAllLines(f).asScala.toIndexedSeq
      if (lines.length == n) return lines
    }
    val threads = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors))
    val pool = Executors.newFixedThreadPool(threads)
    val out = try {
      val fs = (0 until n).map(i => pool.submit(new Callable[String] { def call(): String = compute(i) }))
      fs.map(_.get())
    } finally pool.shutdownNow()
    Files.createDirectories(dir)
    val tmp = Files.createTempFile(dir, key, ".tmp")
    Files.write(tmp, out.asJava)
    Files.move(tmp, f, StandardCopyOption.REPLACE_EXISTING, StandardCopyOption.ATOMIC_MOVE)
    out
  }
}
