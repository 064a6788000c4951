package repro.core

/** Operations on cell-based datasets (Def. 5): sorted arrays of distinct
  * z-order cell IDs. All set arithmetic used by OJSP/CJSP lives here so
  * that the index code and the brute-force references share one
  * implementation.
  */
object CellSet {

  /** Normalise an arbitrary cell collection into the canonical sorted,
    * distinct representation. The input is left unchanged.
    */
  def of(cells: Array[Long]): Array[Long] = sortedDistinct(cells.clone(), cells.length)

  /** Same as the array overload, for any collection. */
  def of(cells: Iterable[Long]): Array[Long] = {
    val a = cells.toArray
    sortedDistinct(a, a.length)
  }

  /** Sort `a(0 until n)` in place and compact out duplicates: the result
    * is the distinct values in ascending order, `a` itself when it is
    * exactly that, else a trimmed copy. Writes `a`.
    */
  def sortedDistinct(a: Array[Long], n: Int): Array[Long] = {
    java.util.Arrays.sort(a, 0, n)
    var m = 0; var i = 0
    while (i < n) {
      if (m == 0 || a(m - 1) != a(i)) { a(m) = a(i); m += 1 }
      i += 1
    }
    if (m == a.length) a else java.util.Arrays.copyOf(a, m)
  }

  /** `|a ∩ b|` by merging two sorted arrays — the OJSP objective. */
  def intersectionSize(a: Array[Long], b: Array[Long]): Int = {
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length) {
      val c = java.lang.Long.compare(a(i), b(j))
      if (c == 0) { n += 1; i += 1; j += 1 }
      else if (c < 0) i += 1
      else j += 1
    }
    n
  }

  /** Sorted union of two sorted arrays — used by the CJSP merge step. */
  def union(a: Array[Long], b: Array[Long]): Array[Long] = {
    val out = new Array[Long](a.length + b.length)
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length) {
      val c = java.lang.Long.compare(a(i), b(j))
      if (c == 0) { out(n) = a(i); i += 1; j += 1 }
      else if (c < 0) { out(n) = a(i); i += 1 }
      else { out(n) = b(j); j += 1 }
      n += 1
    }
    while (i < a.length) { out(n) = a(i); i += 1; n += 1 }
    while (j < b.length) { out(n) = b(j); j += 1; n += 1 }
    java.util.Arrays.copyOf(out, n)
  }

  /** Marginal gain `g(S_D, R) = |S_D ∪ R| − |R|` (Eq. 3) — the number of
    * cells of `d` not already covered.
    */
  def marginalGain(d: Array[Long], covered: Array[Long]): Int =
    d.length - intersectionSize(d, covered)

  /** Cell-based dataset distance (Def. 6): the minimum Euclidean distance
    * between the grid coordinates of any pair of cells. Early-exits at 0
    * (shared cell).
    */
  def minDist(a: Array[Long], b: Array[Long]): Double = {
    if (a.isEmpty || b.isEmpty) return Double.PositiveInfinity
    // A shared cell means distance 0 — check with a cheap sorted merge first.
    if (intersectionSize(a, b) > 0) return 0.0
    val bx = new Array[Int](b.length); val by = new Array[Int](b.length)
    var j = 0
    while (j < b.length) { bx(j) = Grid.cellX(b(j)); by(j) = Grid.cellY(b(j)); j += 1 }
    var best = Double.MaxValue
    var i = 0
    while (i < a.length) {
      val ax = Grid.cellX(a(i)); val ay = Grid.cellY(a(i))
      j = 0
      while (j < b.length) {
        val dx = (ax - bx(j)).toDouble; val dy = (ay - by(j)).toDouble
        val d2 = dx * dx + dy * dy
        if (d2 < best) best = d2
        j += 1
      }
      i += 1
    }
    math.sqrt(best)
  }

  /** Whether `dist(a, b) ≤ δ` (Def. 7, directly connected). Early-exits as
    * soon as any pair is within range.
    */
  def connected(a: Array[Long], b: Array[Long], delta: Double): Boolean = {
    if (a.isEmpty || b.isEmpty) return false
    if (intersectionSize(a, b) > 0) return true
    val d2max = delta * delta
    val bx = new Array[Int](b.length); val by = new Array[Int](b.length)
    var j = 0
    while (j < b.length) { bx(j) = Grid.cellX(b(j)); by(j) = Grid.cellY(b(j)); j += 1 }
    var i = 0
    while (i < a.length) {
      val ax = Grid.cellX(a(i)); val ay = Grid.cellY(a(i))
      j = 0
      while (j < b.length) {
        val dx = (ax - bx(j)).toDouble; val dy = (ay - by(j)).toDouble
        if (dx * dx + dy * dy <= d2max) return true
        j += 1
      }
      i += 1
    }
    false
  }

  /** Reject a connectivity threshold that is negative or NaN. */
  def requireDelta(delta: Double): Unit =
    require(delta >= 0, s"delta must be a number >= 0, got $delta")

  /** Grid coordinates of each cell packed as (x:32|y:32) — decode once,
    * probe many times (the greedy CJSP loop re-tests the same datasets
    * every round).
    */
  def packXY(cells: Array[Long]): Array[Long] = {
    val out = new Array[Long](cells.length)
    var i = 0
    while (i < cells.length) {
      out(i) = (Grid.cellX(cells(i)).toLong << 32) | (Grid.cellY(cells(i)).toLong & 0xffffffffL)
      i += 1
    }
    out
  }

  /** Exact δ-connectivity tester over one cell set, backed by a uniform
    * hash-bucket grid of bucket side max(1, δ): any cell within Euclidean
    * distance δ of a probe cell lies in one of the 3×3 neighbouring
    * buckets, so [[connectedTo]] is equivalent to `minDist ≤ δ` while
    * probing O(|other| · bucket occupancy) instead of O(|this| · |other|).
    * Used by the greedy CJSP variants, whose merged sets grow large.
    */
  final class NeighborIndex(cells: Array[Long], delta: Double) extends Serializable {
    requireDelta(delta)
    private val b = math.max(1, math.ceil(delta).toInt)
    private val d2max = delta * delta
    // bucket key (bx:32|by:32) → packed coords (x:32|y:32) of member cells.
    private val buckets = new java.util.HashMap[Long, Array[Long]]()
    locally {
      val tmp = new scala.collection.mutable.HashMap[Long, scala.collection.mutable.ArrayBuffer[Long]]()
      var i = 0
      while (i < cells.length) {
        val x = Grid.cellX(cells(i)); val y = Grid.cellY(cells(i))
        val key = ((x / b).toLong << 32) | ((y / b).toLong & 0xffffffffL)
        tmp.getOrElseUpdate(key, scala.collection.mutable.ArrayBuffer.empty) +=
          ((x.toLong << 32) | (y.toLong & 0xffffffffL))
        i += 1
      }
      tmp.foreach { case (k, v) => buckets.put(k, v.toArray) }
    }

    /** Whether any cell of `other` is within δ of any indexed cell. */
    def connectedTo(other: Array[Long]): Boolean = connectedToPacked(packXY(other))

    /** Same, over coordinates already packed with [[packXY]]. */
    def connectedToPacked(other: Array[Long]): Boolean = {
      var i = 0
      while (i < other.length) {
        val x = (other(i) >> 32).toInt; val y = other(i).toInt
        val bx = x / b; val by = y / b
        var dx = -1
        while (dx <= 1) {
          var dy = -1
          while (dy <= 1) {
            val pts = buckets.get(((bx + dx).toLong << 32) | ((by + dy).toLong & 0xffffffffL))
            if (pts != null) {
              var j = 0
              while (j < pts.length) {
                val px = (pts(j) >> 32).toInt; val py = pts(j).toInt
                val ddx = (x - px).toDouble; val ddy = (y - py).toDouble
                if (ddx * ddx + ddy * ddy <= d2max) return true
                j += 1
              }
            }
            dy += 1
          }
          dx += 1
        }
        i += 1
      }
      false
    }
  }

  /** MBR of a cell set in cell-coordinate space. The rectangle spans the
    * full extent of each member cell (a cell at (X, Y) covers
    * `[X, X+1] × [Y, Y+1]`), matching Def. 12's MBR of the dataset.
    */
  def mbr(cells: Array[Long]): MBR = {
    require(cells.nonEmpty, "MBR of empty cell set")
    var lx = Int.MaxValue; var ly = Int.MaxValue
    var hx = Int.MinValue; var hy = Int.MinValue
    var i = 0
    while (i < cells.length) {
      val x = Grid.cellX(cells(i)); val y = Grid.cellY(cells(i))
      if (x < lx) lx = x; if (x > hx) hx = x
      if (y < ly) ly = y; if (y > hy) hy = y
      i += 1
    }
    MBR(lx, ly, hx + 1, hy + 1)
  }
}
