package repro.core.baselines

import repro.core.LongTable
import repro.core.dits.{OverlapHit, TopK}

/** STS3 baseline [Peng et al., SIGMOD 16]: a flat inverted index over cell
  * IDs. OJSP accumulates per-dataset counters over the query cells'
  * posting lists, then ranks *all* intersecting datasets — which is why,
  * as the paper observes, its runtime barely changes with k.
  */
final class Sts3Index extends PostingIndex {
  def overlapTopK(queryCells: Array[Long], k: Int): Seq[OverlapHit] = {
    require(k > 0, "k must be positive")
    val counts = new LongTable(16)
    var i = 0
    while (i < queryCells.length) {
      val pl = postings(queryCells(i))
      var j = 1
      while (j <= pl(0)) { counts.add(pl(j), 1); j += 1 }
      i += 1
    }
    TopK.of(counts, k).result
  }
}

object Sts3Index {
  def build(datasets: Iterable[(Int, Array[Long])]): Sts3Index = PostingIndex.build(new Sts3Index, datasets)
}
