package repro.sparkops

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Overlap joinable search expressed as pure Catalyst dataflow — the
  * "spatial join operator" view of OJSP. This is the
  * oracle-checkable reference path; `DistributedDits` is the accelerated
  * path.
  */
object SparkJoinable {

  /** OJSP as a join-aggregate: overlap of every dataset with the query.
    *
    * @param cells  distinct `(source_id, dataset_id, cell)`
    * @param queryCells single-column `(cell)` DataFrame (distinct)
    * @return `(source_id, dataset_id, overlap)` for overlap > 0
    */
  def overlaps(cells: DataFrame, queryCells: DataFrame): DataFrame =
    cells.join(queryCells, "cell")
      .groupBy(col("source_id"), col("dataset_id"))
      .agg(count(col("cell")).as("overlap"))

  /** OJSP top-k across all sources (ties broken by source/dataset id so
    * results are deterministic and comparable to the core engine).
    */
  def overlapTopK(cells: DataFrame, queryCells: DataFrame, k: Int): DataFrame =
    overlaps(cells, queryCells)
      .orderBy(desc("overlap"), asc("source_id"), asc("dataset_id"))
      .limit(k)
}
