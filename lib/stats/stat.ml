type t = { name : string; welford : Welford.t; histogram : Histogram.t option }

let scalar name = { name; welford = Welford.create (); histogram = None }

let with_histogram name hist =
  { name; welford = Welford.create (); histogram = Some hist }

let name t = t.name

(* the hottest call in the tree: match directly — [Option.iter] would
   close over [x] on every record *)
let record t x =
  Welford.add t.welford x;
  match t.histogram with Some h -> Histogram.add h x | None -> ()

let count t = Welford.count t.welford
let mean t = Welford.mean t.welford
let welford t = t.welford
let histogram t = t.histogram

let reset t =
  Welford.reset t.welford;
  Option.iter Histogram.reset t.histogram

let report ?(histograms = true) ppf t =
  Format.fprintf ppf "@[<v>%-32s %a@," t.name Welford.pp t.welford;
  if histograms then
    Option.iter (fun h -> Histogram.pp ppf h) t.histogram;
  Format.fprintf ppf "@]"
