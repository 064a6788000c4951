package repro.core

/** Uniform grid partition of a 2-D space into `2^θ × 2^θ` cells (Def. 4).
  *
  * Cell IDs are z-order (Morton) codes of the integer cell coordinates
  * (Def. 4), which gives consecutive IDs in `[0, 4^θ)` and lets a cell ID
  * be decomposed back into its `(X, Y)` grid coordinates for the distance
  * computation of Def. 6.
  *
  * @param theta resolution θ — each dimension has `2^θ` cells
  * @param space the lon/lat extent of the whole 2-D space being gridded
  */
final case class Grid(theta: Int, space: MBR) extends Serializable {
  require(theta >= 1 && theta <= 28, s"resolution out of range: $theta")

  /** Number of cells per dimension, `2^θ`. */
  val side: Int = 1 << theta

  /** Cell width ν and height μ in lon/lat units. */
  val cellW: Double = (space.maxX - space.minX) / side
  val cellH: Double = (space.maxY - space.minY) / side

  private def clamp(i: Int): Int = if (i < 0) 0 else if (i >= side) side - 1 else i

  /** Cell ID of the cell containing lon/lat point (x, y). Points on or
    * beyond an edge (±∞ included) are clamped into the edge cell; a NaN
    * coordinate is rejected.
    */
  def cellOf(x: Double, y: Double): Long = {
    require(x == x && y == y, "NaN coordinate") // NaN is the only value ≠ itself
    Grid.interleave(clamp(((x - space.minX) / cellW).toInt), clamp(((y - space.minY) / cellH).toInt))
  }

  /** Grid coordinates (X, Y) of cell `c` — inverse of [[cellOf]]. */
  def coordsOf(c: Long): (Int, Int) = Grid.deinterleave(c)

  /** Lon/lat MBR covered by cell `c`. */
  def cellRect(c: Long): MBR = {
    val cx = Grid.cellX(c); val cy = Grid.cellY(c)
    MBR(space.minX + cx * cellW, space.minY + cy * cellH,
        space.minX + (cx + 1) * cellW, space.minY + (cy + 1) * cellH)
  }

  /** Convert a rectangle in *cell-coordinate* space back to lon/lat. */
  def cellSpaceToLonLat(r: MBR): MBR =
    MBR(space.minX + r.minX * cellW, space.minY + r.minY * cellH,
        space.minX + r.maxX * cellW, space.minY + r.maxY * cellH)

  /** Convert a lon/lat rectangle into cell-coordinate space (fractional). */
  def lonLatToCellSpace(r: MBR): MBR =
    MBR((r.minX - space.minX) / cellW, (r.minY - space.minY) / cellH,
        (r.maxX - space.minX) / cellW, (r.maxY - space.minY) / cellH)

  /** Cell-based dataset of a point set (Def. 5): distinct sorted cell IDs. */
  def cellSet(points: Iterable[Point]): Array[Long] = {
    val a = new Array[Long](points.size)
    val it = points.iterator
    var n = 0
    while (it.hasNext) { val p = it.next(); a(n) = cellOf(p.x, p.y); n += 1 }
    CellSet.sortedDistinct(a, n)
  }
}

object Grid {
  /** Interleave the bits of (x, y) into a z-order code: y bits occupy the
    * odd positions, x bits the even positions. Only the low 28 bits of
    * each coordinate are used.
    */
  def interleave(x: Int, y: Int): Long = spread(x) | (spread(y) << 1)

  /** Inverse of [[interleave]]. */
  def deinterleave(c: Long): (Int, Int) = (cellX(c), cellY(c))

  /** Grid X coordinate of cell `c` (the even bits of its z-order code). */
  def cellX(c: Long): Int = compact(c)

  /** Grid Y coordinate of cell `c` (the odd bits of its z-order code). */
  def cellY(c: Long): Int = compact(c >>> 1)

  // Morton's bit spreading as five mask-and-shift steps: each step moves
  // the upper half of every bit group up by half the group width.
  private def spread(v: Int): Long = {
    var x = v.toLong & 0x0fffffffL
    x = (x | (x << 16)) & 0x0000ffff0000ffffL
    x = (x | (x << 8)) & 0x00ff00ff00ff00ffL
    x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fL
    x = (x | (x << 2)) & 0x3333333333333333L
    (x | (x << 1)) & 0x5555555555555555L
  }

  // Inverse of `spread` on the even bits of `c` below bit 56.
  private def compact(c: Long): Int = {
    var x = c & 0x0055555555555555L
    x = (x | (x >>> 1)) & 0x3333333333333333L
    x = (x | (x >>> 2)) & 0x0f0f0f0f0f0f0f0fL
    x = (x | (x >>> 4)) & 0x00ff00ff00ff00ffL
    x = (x | (x >>> 8)) & 0x0000ffff0000ffffL
    (x | (x >>> 16)).toInt
  }

  /** The world grid used throughout the experiments: the paper divides the
    * globe into a `2^θ × 2^θ` grid (Section VII-A's distance-sampling
    * discussion), so the space is all of lon/lat.
    */
  def world(theta: Int): Grid = Grid(theta, MBR(-180, -90, 180, 90))
}
