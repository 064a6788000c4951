package repro.multisource

/** Communication accounting for the data-center ↔ data-source protocol
  * (Section VI-A, Figs. 13–14 and 19–20).
  *
  * Each message costs a 24-byte header ([[CommStats.HeaderBytes]]) plus 8
  * bytes per item: a lon/lat point shipped either way (`sendCells`,
  * `receiveCells`) is charged as the 8-byte cell ID it stands for, and an
  * OJSP hit (`receiveHits`) as a 4-byte dataset id plus a 4-byte count.
  * Transmission time = bytes / bandwidth (the paper: "the transmission
  * time is inversely proportional to the network bandwidth").
  */
final class CommStats extends Serializable {
  var messages: Long = 0
  var bytesSent: Long = 0      // data center → sources
  var bytesReceived: Long = 0  // sources → data center

  def total: Long = bytesSent + bytesReceived

  def sendCells(n: Int): Unit = { messages += 1; bytesSent += 8L * n + CommStats.HeaderBytes }
  def receiveHits(n: Int): Unit = { messages += 1; bytesReceived += 8L * n + CommStats.HeaderBytes }
  def receiveCells(n: Int): Unit = { messages += 1; bytesReceived += 8L * n + CommStats.HeaderBytes }

  /** Simulated transfer time in milliseconds over the simulated link. */
  def transferMillis: Double = total * 8.0 / (CommStats.LinkMbps * 1e6) * 1e3

  def +=(o: CommStats): Unit = {
    messages += o.messages; bytesSent += o.bytesSent; bytesReceived += o.bytesReceived
  }
}

object CommStats {
  /** Fixed per-message envelope (ids, lengths, request type). */
  val HeaderBytes = 24L
  /** Simulated link bandwidth (megabit/s) for transfer-time figures. */
  val LinkMbps = 100.0
}
