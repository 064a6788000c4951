package repro.exp

/** Tiny measurement harness: the one wall-clock timing rule of every
  * reproduced figure, and an aligned-table renderer shared by the
  * spark-submit jobs and the bench suites, so every table/figure
  * regenerates in the same format recorded in EXPERIMENTS.md.
  */
object Bench {

  /** Untimed warm-up runs before the timed ones (JIT compilation). */
  val Warmup = 2
  /** Timed runs; their median is reported. */
  val Reps = 5

  /** Median wall-clock milliseconds of `run` over [[Reps]] timed runs after
    * [[Warmup]] untimed ones.
    */
  def medianMs(run: => Any): Double = medianMsAfter(())(_ => run)

  /** As [[medianMs]], but each run first gets its own value from `setup`
    * (say, a fresh index to write into), which is not timed.
    */
  def medianMsAfter[S](setup: => S)(run: S => Any): Double = {
    val ts = new Array[Double](Reps)
    var i = 0
    while (i < Warmup + Reps) {
      val s = setup
      val t0 = System.nanoTime()
      run(s)
      val ms = (System.nanoTime() - t0) / 1e6
      if (i >= Warmup) ts(i - Warmup) = ms
      i += 1
    }
    java.util.Arrays.sort(ts)
    ts(Reps / 2)
  }

  /** Render rows as an aligned text table. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (s"== $title ==" +: line(header) +: rows.map(line)).mkString("\n")
  }

  def fmt(d: Double): String = f"$d%.2f"
}
