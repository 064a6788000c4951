package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.{Experiments, Workloads}

/** Shared entrypoint plumbing for the per-table jobs. Core experiments are
  * driver-side (the paper's engines are in-memory indexes); the Spark
  * session is still created so each job runs identically under
  * spark-submit, and `DistributedSearchJob` exercises the cluster path.
  */
private[jobs] object JobUtil {
  def session(name: String): SparkSession =
    SparkSession.builder.appName(name)
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def arg(args: Array[String], i: Int, dflt: Double): Double =
    if (args.length > i) args(i).toDouble else dflt
}

/** Table I — synthetic data source statistics. */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val scale = JobUtil.arg(args, 0, 0.1)
    println(Experiments.tableI(scale).render)
  }
}

/** Fig. 8 — index construction time & memory vs θ, five indexes. */
object IndexBuildJob {
  def main(args: Array[String]): Unit = {
    val scale = JobUtil.arg(args, 0, 0.1)
    println(Experiments.indexConstruction(scale = scale).render)
  }
}

/** Figs. 9–12 — OJSP search time vs k, θ, q, f. */
object OverlapSearchJob {
  def main(args: Array[String]): Unit = {
    val scale = JobUtil.arg(args, 0, 0.1)
    println(Experiments.overlapVsK(scale).render)
    println(Experiments.overlapVsTheta(scale).render)
    println(Experiments.overlapVsQ(scale).render)
    println(Experiments.overlapVsF(scale).render)
  }
}

/** Figs. 13–14 — OJSP communication cost & transfer time vs q. */
object OverlapCommJob {
  def main(args: Array[String]): Unit = {
    val scale = JobUtil.arg(args, 0, 0.1)
    println(Experiments.overlapComm(scale).render)
  }
}

/** Figs. 15–18 — CJSP search time vs k, θ, q, δ. */
object CoverageSearchJob {
  def main(args: Array[String]): Unit = {
    val scale = JobUtil.arg(args, 0, 0.1)
    println(Experiments.coverageVsK(scale).render)
    println(Experiments.coverageVsTheta(scale).render)
    println(Experiments.coverageVsQ(scale).render)
    println(Experiments.coverageVsDelta(scale).render)
  }
}

/** Figs. 19–20 — CJSP communication cost & transfer time vs q. */
object CoverageCommJob {
  def main(args: Array[String]): Unit = {
    val scale = JobUtil.arg(args, 0, 0.1)
    println(Experiments.coverageComm(scale).render)
  }
}

/** Figs. 21–22 — index update (insert/update) time vs β. */
object IndexUpdateJob {
  def main(args: Array[String]): Unit = {
    val scale = JobUtil.arg(args, 0, 0.1)
    println(Experiments.indexUpdates(scale = scale).render)
  }
}

/** End-to-end distributed run: build the five sources as DataFrames, build
  * the distributed DITS, and run OJSP + CJSP through both the dataflow
  * operator and the data center over Spark-resident sources.
  */
object DistributedSearchJob {
  def main(args: Array[String]): Unit = {
    val scale = JobUtil.arg(args, 0, 0.02)
    val spark = JobUtil.session("DistributedSearchJob")
    import repro.core.Grid
    import repro.sparkops.{DistributedDits, SparkJoinable, SpatialCells}

    val grid = Grid.world(Workloads.ParamGrid.thetaDefault)
    val specs = repro.core.SynthSpatial.paperSources(scale)
    val points = repro.SynthData.spatialSources(spark, specs)
    val cells = SpatialCells.toCells(points, grid).cache()
    println(s"cells: ${cells.count()} rows across ${specs.length} sources")

    val dits = DistributedDits.build(cells, grid, Workloads.ParamGrid.fDefault)
    val query = Workloads.sampleQueries(Workloads.cellSources(grid.theta, scale), 1).head

    val (hits, comm) = dits.overlapTopK(query, Workloads.ParamGrid.kDefault)
    println(s"OJSP top-${Workloads.ParamGrid.kDefault} (${comm.messages} messages, " +
            s"${comm.bytesSent} bytes sent, ${comm.bytesReceived} bytes received):")
    hits.foreach { case (s, d, ov) => println(s"  source=$s dataset=$d overlap=$ov") }

    import spark.implicits._
    val qdf = query.toSeq.toDF("cell")
    println("Dataflow OJSP (join-agg-limit):")
    SparkJoinable.overlapTopK(cells, qdf, Workloads.ParamGrid.kDefault).show()

    val (picked, cov) = dits.coverageSearch(
      query, Workloads.ParamGrid.deltaDefault, Workloads.ParamGrid.kDefault)
    println(s"CJSP picked=${picked.mkString(",")} coverage=$cov")
    spark.stop()
  }
}
