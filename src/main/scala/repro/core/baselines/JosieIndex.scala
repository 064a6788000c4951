package repro.core.baselines

import repro.core.LongTable
import repro.core.dits.{OverlapHit, TopK}

/** JOSIE baseline [Zhu et al., SIGMOD 19], reduced to the mechanism the
  * paper's comparison exercises: a sorted inverted index ([[PostingIndex]])
  * and exact top-k set-overlap search with prefix-filter early termination.
  *
  * Search processes query cells in ascending posting-list-frequency order
  * (rarest first). After i of n cells, any dataset not yet touched can
  * reach overlap at most n − i, so once k datasets are counted and the
  * k-th best count exceeds n − i the scan stops early — JOSIE's
  * distribution-dependent behaviour that the paper contrasts with DITS.
  */
final class JosieIndex extends PostingIndex {
  def overlapTopK(queryCells: Array[Long], k: Int): Seq[OverlapHit] = {
    require(k > 0, "k must be positive")
    // Rarest first concentrates discriminative cells up front. Sorting
    // (length, query position) keys keeps equal lengths in query order.
    val pls = queryCells.map(postings)
    val ordered = Array.tabulate(pls.length)(i => pls(i)(0).toLong << 32 | i)
    java.util.Arrays.sort(ordered)
    val counts = new LongTable(16)
    // Counts one for each dataset in the i-th rarest posting list; with
    // `seenOnly`, only for the datasets already counted.
    def scan(i: Int, seenOnly: Boolean): Unit = {
      val pl = pls(ordered(i).toInt)
      var j = 1
      while (j <= pl(0)) {
        if (!seenOnly) counts.add(pl(j), 1)
        else { val s = counts.find(pl(j)); if (s >= 0) counts.setValue(s, counts.value(s) + 1) }
        j += 1
      }
    }
    var processed = 0
    while (processed < ordered.length) {
      scan(processed, seenOnly = false)
      processed += 1
      // Early termination: unseen datasets can score at most the number of
      // unprocessed query cells; one that ties the k-th may have a smaller
      // id, so stop only when the k-th is strictly ahead. Seen candidates
      // may still grow, so the rest is counted for them only.
      if (counts.size >= k && TopK.of(counts, k).kth > ordered.length - processed)
        while (processed < ordered.length) { scan(processed, seenOnly = true); processed += 1 }
    }
    TopK.of(counts, k).result
  }
}

object JosieIndex {
  def build(datasets: Iterable[(Int, Array[Long])]): JosieIndex = PostingIndex.build(new JosieIndex, datasets)
}
