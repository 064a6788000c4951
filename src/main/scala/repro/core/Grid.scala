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

  /** Integer grid coordinates of the cell containing lon/lat point (x, y).
    * Points on or beyond an edge (±∞ included) are clamped into the edge
    * cell; a NaN coordinate is rejected.
    */
  def cellCoords(x: Double, y: Double): (Int, Int) = {
    require(x == x && y == y, "NaN coordinate") // NaN is the only value ≠ itself
    (clamp(((x - space.minX) / cellW).toInt), clamp(((y - space.minY) / cellH).toInt))
  }

  /** Cell ID of the cell containing lon/lat point (x, y). */
  def cellOf(x: Double, y: Double): Long = {
    val (cx, cy) = cellCoords(x, y)
    Grid.interleave(cx, cy)
  }

  /** Grid coordinates (X, Y) of cell `c` — inverse of [[cellOf]]. */
  def coordsOf(c: Long): (Int, Int) = Grid.deinterleave(c)

  /** Lon/lat MBR covered by cell `c`. */
  def cellRect(c: Long): MBR = {
    val (cx, cy) = coordsOf(c)
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
    val s = new scala.collection.mutable.TreeSet[Long]()
    points.foreach(p => s += cellOf(p.x, p.y))
    s.toArray
  }
}

object Grid {
  /** Interleave the bits of (x, y) into a z-order code: y bits occupy the
    * odd positions, x bits the even positions.
    */
  def interleave(x: Int, y: Int): Long = {
    var code = 0L
    var i = 0
    while (i < 28) {
      code |= ((x >> i) & 1L) << (2 * i)
      code |= ((y >> i) & 1L) << (2 * i + 1)
      i += 1
    }
    code
  }

  /** Inverse of [[interleave]]. */
  def deinterleave(c: Long): (Int, Int) = {
    var x = 0; var y = 0
    var i = 0
    while (i < 28) {
      x |= (((c >> (2 * i)) & 1L) << i).toInt
      y |= (((c >> (2 * i + 1)) & 1L) << i).toInt
      i += 1
    }
    (x, y)
  }

  /** The world grid used throughout the experiments: the paper divides the
    * globe into a `2^θ × 2^θ` grid (Section VII-A's distance-sampling
    * discussion), so the space is all of lon/lat.
    */
  def world(theta: Int): Grid = Grid(theta, MBR(-180, -90, 180, 90))
}
