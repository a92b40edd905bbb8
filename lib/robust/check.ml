module Vec = Minflo_util.Vec

type finding = { name : string; ok : bool; detail : string }

type t = { findings : finding Vec.t }

let dummy = { name = ""; ok = true; detail = "" }

let create () = { findings = Vec.create ~dummy () }

let record t name verdict =
  let f =
    match verdict with
    | Ok () -> { name; ok = true; detail = "" }
    | Error detail -> { name; ok = false; detail }
  in
  ignore (Vec.push t.findings f)

let findings t = Vec.to_list t.findings

let failures t = List.filter (fun f -> not f.ok) (findings t)

let first_failure t =
  match failures t with
  | [] -> None
  | f :: _ -> Some (Diag.Invariant { what = f.name; detail = f.detail })

let to_string t =
  findings t
  |> List.map (fun f ->
         if f.ok then Printf.sprintf "  ok   %s" f.name
         else Printf.sprintf "  FAIL %s: %s" f.name f.detail)
  |> String.concat "\n"
