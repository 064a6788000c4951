package repro.core.baselines

import repro.core.CellSet
import repro.core.dits.{CoverageResult, OverlapHit}

/** Index-free reference implementations — the ground truth every index and
  * every Spark operator is tested against.
  */
object BruteForce {

  /** OJSP by full scan: exact overlap of every dataset, top-k, ties by id.
    * Zero-overlap datasets are excluded (consistent with OverlapSearch).
    */
  def overlapTopK(datasets: Iterable[(Int, Array[Long])],
                  query: Array[Long], k: Int): Seq[OverlapHit] =
    datasets.iterator
      .map { case (id, cells) => OverlapHit(id, CellSet.intersectionSize(cells, query)) }
      .filter(_.overlap > 0)
      .toSeq
      .sorted
      .take(k)

  /** Exhaustive CJSP optimum — only for tiny instances (≤ ~15 datasets).
    * Enumerates all ≤k subsets, keeps those satisfying spatial
    * connectivity with the query, and maximises coverage.
    */
  def coverageOptimal(datasets: Seq[(Int, Array[Long])],
                      query: Array[Long], delta: Double, k: Int): CoverageResult = {
    val q = CellSet.of(query)
    var best = CoverageResult(Seq.empty, q.length)
    val ids = datasets.map(_._1)
    val byId = datasets.toMap

    def connectedSubset(sub: Seq[Int]): Boolean = {
      // BFS from the query over the directly-connected graph of sub ∪ {Q}.
      val sets = sub.map(byId)
      val seen = Array.fill(sub.length)(false)
      var frontier: List[Array[Long]] = List(q)
      var reached = 0
      while (frontier.nonEmpty) {
        val cur = frontier.head; frontier = frontier.tail
        var i = 0
        while (i < sets.length) {
          if (!seen(i) && CellSet.connected(sets(i), cur, delta)) {
            seen(i) = true; reached += 1; frontier ::= sets(i)
          }
          i += 1
        }
      }
      reached == sub.length
    }

    def cov(sub: Seq[Int]): Int =
      sub.foldLeft(q)((acc, id) => CellSet.union(acc, byId(id))).length

    def rec(from: Int, chosen: List[Int]): Unit = {
      if (chosen.nonEmpty && connectedSubset(chosen)) {
        val c = cov(chosen)
        if (c > best.coverage) best = CoverageResult(chosen.reverse, c)
      }
      if (chosen.length < k) {
        var i = from
        while (i < ids.length) { rec(i + 1, ids(i) :: chosen); i += 1 }
      }
    }
    rec(0, Nil)
    best
  }
}
