package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** Test access to the broadcasts held by the driver's block manager (the
  * manager is internal to Spark, hence this package).
  */
object BroadcastBlocks {

  /** Ids of the broadcasts whose value the driver still stores, leaving
    * out task binaries (serialized closures, stored as `Array[Byte]`),
    * which the context cleaner reclaims on its own schedule.
    */
  def liveValueIds(): Set[Long] = {
    val bm = SparkEnv.get.blockManager
    bm.getMatchingBlockIds {
      case BroadcastBlockId(_, "") => true
      case _                       => false
    }.flatMap { id =>
      // Draining the values releases the read lock `getLocalValues` takes.
      bm.getLocalValues(id).map(_.data.toList).collect {
        case vs if !vs.exists(_.isInstanceOf[Array[Byte]]) => id.asInstanceOf[BroadcastBlockId].broadcastId
      }
    }.toSet
  }
}
