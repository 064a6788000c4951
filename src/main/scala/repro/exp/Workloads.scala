package repro.exp

import repro.core.{Grid, SynthSpatial}
import repro.core.SynthSpatial.SourceSpec
import scala.util.Random

/** The experiment workloads: the five synthetic sources (Table I at 1/10
  * scale), cell-based materialisation per θ, and query sampling
  * ("we randomly select 50 datasets from all downloaded datasets as the
  * query datasets" — Section VII-A).
  */
object Workloads {

  /** Table II parameter grid; defaults underlined in the paper. */
  object ParamGrid {
    val k: Seq[Int] = Seq(10, 20, 30, 40, 50);       val kDefault = 10
    val q: Seq[Int] = Seq(10, 20, 30, 40, 50);       val qDefault = 10
    val theta: Seq[Int] = Seq(10, 11, 12, 13, 14);   val thetaDefault = 12
    val delta: Seq[Double] = Seq(0, 5, 10, 15, 20);  val deltaDefault = 5.0
    val f: Seq[Int] = Seq(10, 20, 30, 40, 50);       val fDefault = 10
  }

  /** Figs. 21–22 batch sizes β: datasets inserted or updated per batch. */
  val Betas: Seq[Int] = Seq(100, 150, 200, 250, 300)

  val Seed = 42L
  private val QuerySeed = 7L
  private val FreshSeed = 11L

  /** One materialised source: spec + cell-based datasets under a grid. */
  final case class CellSource(spec: SourceSpec, grid: Grid,
                              datasets: IndexedSeq[(Int, Array[Long])])

  /** Materialise all sources at resolution θ. */
  def cellSources(theta: Int, scale: Double = 0.1): IndexedSeq[CellSource] = {
    val grid = Grid.world(theta)
    SynthSpatial.paperSources(scale).map { spec =>
      CellSource(spec, grid, SynthSpatial.cellSource(spec, grid, Seed))
    }
  }

  /** Sample `q` query cell sets: datasets drawn uniformly from the union
    * of all sources (deterministic, so a larger `q` extends a smaller one).
    */
  def sampleQueries(sources: IndexedSeq[CellSource], q: Int): IndexedSeq[Array[Long]] = {
    val rnd = new Random(QuerySeed)
    val flat = sources.flatMap(s => s.datasets.map(_._2))
    IndexedSeq.fill(q)(flat(rnd.nextInt(flat.length)))
  }

  /** Fresh dataset cell sets for the Fig. 21 insert workload: new ids past
    * the existing range, same generator.
    */
  def freshDatasets(src: CellSource, n: Int): IndexedSeq[(Int, Array[Long])] = {
    val base = src.spec.nDatasets
    (0 until n).map { i =>
      val id = base + i
      id -> src.grid.cellSet(SynthSpatial.dataset(src.spec, id, FreshSeed).points)
    }
  }
}
