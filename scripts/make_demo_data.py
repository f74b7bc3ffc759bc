#!/usr/bin/env python3
"""Write small demo inputs for the CLI: caption records for the longcap
pipeline and article records for build-benchmark.

Usage:
    python scripts/make_demo_data.py --out demo_data
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from longctx.data import json_line
from longctx.longcap import CaptionRecord, write_caption_records

DEMO_RECORDS = [
    ("histology slide of liver tissue",
     ["the section shows hepatocytes with clear cytoplasm"],
     "We examined liver biopsies stained with standard protocols.",
     {"HE": "hematoxylin and eosin"}),
    ("HE stain of tumor margin",
     ["arrows mark the invasive front of the tumor"],
     "Tumor margins were assessed in resected specimens.",
     {"HE": "hematoxylin and eosin"}),
    ("chest radiograph with right basal opacity",
     ["the opacity obscures the right hemidiaphragm"],
     "Patient survival improved after treatment in this cohort.",
     {"CXR": "chest X-ray"}),
    ("CT section at the level of the kidneys",
     ["both kidneys show normal enhancement"],
     "Follow-up imaging showed improved outcome at one year.",
     {"CT": "computed tomography"}),
    ("fundus photograph of the left eye",
     ["the optic disc margins are sharp"],
     "Retinal images were graded by two readers.", {}),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="demo_data")
    ap.add_argument("--articles", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    records = [
        CaptionRecord(id=f"demo-{i:02d}", image_ref=f"img://{i:02d}", caption=cap,
                      inline_mentions=tuple(mentions), abstract=abstract,
                      acronym_map=acronyms)
        for i, (cap, mentions, abstract, acronyms) in enumerate(DEMO_RECORDS)
    ]
    write_caption_records(records, out / "caption_records.jsonl")

    rng = np.random.default_rng(args.seed)
    with (out / "articles.jsonl").open("w") as fh:
        for a in range(args.articles):
            figures = []
            for f in range(int(rng.integers(1, 4))):
                figures.append({
                    "figure_id": f"fig{f}",
                    "image": [float(x) for x in rng.normal(size=16)],
                    "caption": f"figure {f} of article {a} showing a stained section",
                    "inline_refs": [f"as discussed for figure {f}, the region "
                                    f"is marked by arrows"] if f % 2 == 0 else [],
                })
            fh.write(json_line({
                "article_id": f"article-{a:03d}",
                "date": f"2025-0{1 + a % 9}-15",
                "figures": figures,
            }))

    print(f"wrote {out / 'caption_records.jsonl'} and {out / 'articles.jsonl'}")


if __name__ == "__main__":
    main()
